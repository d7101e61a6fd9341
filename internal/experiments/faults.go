package experiments

import (
	"strconv"
	"time"

	"muri/internal/faults"
	"muri/internal/sched"
	"muri/internal/sim"
	"muri/internal/trace"
)

// faultsSeed fixes the failure plans so the experiment is reproducible
// run to run.
const faultsSeed = 7

// faultRegime parameterizes one failure intensity.
type faultRegime struct {
	name          string
	mtbf          time.Duration
	transientProb float64
}

// faultRegimes are the intensities the sweep runs, healthy first.
var faultRegimes = []faultRegime{
	{"none", 0, 0},
	{"low", 7 * 24 * time.Hour, 0.01},
	{"med", 24 * time.Hour, 0.05},
	{"high", 6 * time.Hour, 0.10},
}

// faultPlan builds a regime's seeded plan for trace tr; nil for the
// healthy baseline.
func (o Options) faultPlan(reg faultRegime, tr trace.Trace) *faults.Plan {
	if reg.mtbf == 0 && reg.transientProb == 0 {
		return nil
	}
	return faults.NewPlan(faults.Config{
		Seed:               faultsSeed,
		Machines:           o.machines(),
		MTBF:               reg.mtbf,
		MTTR:               30 * time.Minute,
		Horizon:            faultsHorizon(tr),
		TransientFaultProb: reg.transientProb,
		StragglerFraction:  0.1,
		StragglerSlowdown:  1.3,
	})
}

// Faults runs the failure-rate sweep. The paper's evaluation assumes a
// healthy cluster; this experiment stresses the schedulers with the
// deterministic failure model of internal/faults — machine crash/repair
// cycles, transient job faults, and straggler machines — at increasing
// failure rates, and reports how much JCT and makespan degrade for
// Muri-L versus the SRTF/SRSF baselines. Each regime builds one seeded
// plan (shared read-only by every policy, so all policies face the
// exact same crash schedule) and every policy replays the first trace
// against it.
func (o Options) Faults() Table {
	tr := o.traces()[0]
	policies := func() []sched.Policy {
		return []sched.Policy{sched.SRTF(), sched.SRSF(), sched.NewMuriL()}
	}
	plans := make([]*faults.Plan, len(faultRegimes))
	for i, reg := range faultRegimes {
		plans[i] = o.faultPlan(reg, tr)
	}
	nPol := len(policies())
	out := make([]sim.Result, len(faultRegimes)*nPol)
	forEach(len(out), func(i int) {
		cfg := o.simConfig()
		cfg.Faults = plans[i/nPol]
		out[i] = sim.Run(cfg, tr, policies()[i%nPol])
	})
	t := Table{
		Title:  "Faults: scheduling under machine crashes, transient job faults, and stragglers (trace " + tr.Name + ")",
		Header: []string{"rate", "mtbf", "policy", "avg JCT", "p99 JCT", "makespan", "crashes", "transient", "requeues", "work lost"},
	}
	for i, r := range out {
		reg, mtbf := faultRegimes[i/nPol], "-"
		if reg.mtbf > 0 {
			mtbf = reg.mtbf.String()
		}
		t.Rows = append(t.Rows, []string{
			reg.name, mtbf, r.Policy,
			r.Summary.AvgJCT.Round(time.Second).String(),
			r.Summary.P99JCT.Round(time.Second).String(),
			r.Summary.Makespan.Round(time.Second).String(),
			strconv.Itoa(r.Faults.Crashes), strconv.Itoa(r.Faults.Transient), strconv.Itoa(r.Faults.Requeues),
			r.Faults.WorkLost.Round(time.Second).String(),
		})
	}
	return t
}

// faultsHorizon bounds crash generation to the trace's active window
// plus slack for the fault-extended tail.
func faultsHorizon(tr trace.Trace) time.Duration {
	var last time.Duration
	for _, sp := range tr.Specs {
		if sp.Submit > last {
			last = sp.Submit
		}
	}
	return last + 30*24*time.Hour
}
