package experiments

import (
	"strconv"
	"time"

	"muri/internal/metrics"
	"muri/internal/profile"
	"muri/internal/sched"
	"muri/internal/sim"
)

// predictionSeed fixes the drift model so the sweep is reproducible run
// to run.
const predictionSeed = 11

// Prediction runs the online-prediction sweep. The paper's evaluation
// assumes oracle stage profiles; this experiment drifts the execution
// truth away from the submitted profiles at increasing amplitudes and
// compares, per regime, three belief sources for SRTF and Muri-L: the
// oracle (reads the drifted truth — the paper's assumption restored),
// stale profiles (trusts the submission), and the online estimator
// (learns per-model running estimates from completions, re-profiling
// past the engine's deviation threshold). Each row's norm JCT is its
// avg JCT over the same policy family's oracle run in the same regime:
// the JCT cost of imperfect prediction against the oracle upper bound.
// For online rows, pred err is the estimator's mean absolute relative
// prediction error and reseeds counts beliefs re-seeded after deviating
// completions.
func (o Options) Prediction() Table {
	tr := o.traces()[0]
	regimes := []struct {
		name      string
		amplitude float64
	}{{"none", 0}, {"low", 0.2}, {"med", 0.5}, {"high", 1.0}}
	runs := []struct{ family, mode string }{
		{"srtf", "oracle"}, {"srtf", "stale"}, {"srtf", "online"}, {"muri-l", "oracle"}, {"muri-l", "online"},
	}
	out := make([]sim.Result, len(regimes)*len(runs))
	predErr, reseeds := make([]string, len(out)), make([]string, len(out))
	forEach(len(out), func(i int) {
		reg, ru := regimes[i/len(runs)], runs[i%len(runs)]
		cfg := o.simConfig()
		var online *profile.Online
		switch ru.mode {
		case "oracle":
			cfg.Estimator = profile.NewOracle()
		case "online":
			online = profile.NewOnline()
			cfg.Estimator = online
		}
		p, err := sched.ByName(ru.family, online)
		if err != nil {
			panic(err)
		}
		if reg.amplitude > 0 {
			cfg.Drift = &profile.Drift{Amplitude: reg.amplitude, Seed: predictionSeed}
		}
		out[i] = sim.Run(cfg, tr, p)
		predErr[i], reseeds[i] = "-", "-"
		if online != nil {
			e, _ := online.Error()
			_, _, n := online.Stats()
			predErr[i], reseeds[i] = f2(e), strconv.Itoa(n)
		}
	})
	t := Table{
		Title: "Prediction: online duration estimation vs oracle profiles under drift (trace " + tr.Name + ")",
		Header: []string{"regime", "drift", "policy", "mode", "avg JCT", "p99 JCT", "makespan",
			"norm JCT", "pred err", "reseeds"},
	}
	// The runs slice keeps families contiguous with oracle first, so a
	// row's oracle is the last oracle row before it.
	var oracle time.Duration
	for i, r := range out {
		reg, ru := regimes[i/len(runs)], runs[i%len(runs)]
		if ru.mode == "oracle" {
			oracle = r.Summary.AvgJCT
		}
		t.Rows = append(t.Rows, []string{
			reg.name, f2(reg.amplitude), r.Policy, ru.mode,
			r.Summary.AvgJCT.Round(time.Second).String(),
			r.Summary.P99JCT.Round(time.Second).String(),
			r.Summary.Makespan.Round(time.Second).String(),
			f2(metrics.Speedup(r.Summary.AvgJCT, oracle)), predErr[i], reseeds[i],
		})
	}
	return t
}
