package sim

import (
	"testing"

	"muri/internal/profile"
	"muri/internal/sched"
)

// Selecting the oracle estimator must leave every fixed-seed decision
// stream and metric fingerprint byte-identical to an estimator-free run:
// the oracle reads each job's true profile, which is exactly what the
// oracle-era policies read. This pins the tentpole's bit-identity
// acceptance criterion against the same goldens TestGoldenResults uses.
func TestOracleEstimatorMatchesGoldens(t *testing.T) {
	dt := determinismTrace()
	ct := chaosTrace()
	oracle := func(cfg Config) Config { cfg.Estimator = profile.NewOracle(); return cfg }
	event := func(cfg Config) Config { cfg.EventDriven = true; return cfg }
	cases := map[string]func() Result{
		"fifo":   func() Result { return Run(oracle(DefaultConfig()), dt, sched.FIFO()) },
		"srtf":   func() Result { return Run(oracle(DefaultConfig()), dt, sched.SRTF()) },
		"muri-s": func() Result { return Run(oracle(DefaultConfig()), dt, sched.NewMuriS()) },
		"muri-l": func() Result { return Run(oracle(DefaultConfig()), dt, sched.NewMuriL()) },
		"muri-l-event": func() Result {
			return Run(oracle(event(DefaultConfig())), dt, sched.NewMuriL())
		},
		"muri-l-chaos-event": func() Result {
			return Run(oracle(event(chaosConfig(chaosPlan(7, 4)))), ct, sched.NewMuriL())
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			got := goldenHash(run())
			want := goldenHashes[name]
			if want == "" {
				t.Fatalf("golden[%q] unset", name)
			}
			if got != want {
				t.Errorf("oracle estimator diverged from the estimator-free golden\n got %s\nwant %s", got, want)
			}
		})
	}
}

// Under drift with the online estimator, a run must actually learn:
// completions accumulate into the estimator and its error score is
// populated. This is the smoke test for the full sim threading
// (drift → stale beliefs → completions → engine → estimator → policy).
func TestOnlineEstimatorLearnsUnderDrift(t *testing.T) {
	tr := determinismTrace()
	est := profile.NewOnline()
	cfg := DefaultConfig()
	cfg.Estimator = est
	cfg.Drift = &profile.Drift{Amplitude: 0.5, Seed: 21}
	res := Run(cfg, tr, sched.SRTF())
	if res.Summary.Jobs == 0 {
		t.Fatal("no jobs completed")
	}
	models, samples, _ := est.Stats()
	if models == 0 || samples == 0 {
		t.Fatalf("estimator learned nothing: models=%d samples=%d", models, samples)
	}
	// Re-profiling re-seeds a model's sample count, so the retained total
	// can only be bounded, not matched, against completions.
	if samples > res.Summary.Jobs {
		t.Errorf("estimator retained %d samples, run finished only %d jobs", samples, res.Summary.Jobs)
	}
	if len(est.ServiceHistory()) != res.Summary.Jobs {
		t.Errorf("service history holds %d completions, run finished %d jobs",
			len(est.ServiceHistory()), res.Summary.Jobs)
	}
	if _, n := est.Error(); n == 0 {
		t.Error("no prediction errors scored despite repeated models in the trace")
	}
	if len(est.ServiceHistory()) == 0 {
		t.Error("service history empty; Gittins would stay cold")
	}
}

// Drift must change execution outcomes (it perturbs the truth) while
// remaining deterministic run to run.
func TestDriftDeterministicInSim(t *testing.T) {
	tr := determinismTrace()
	run := func() Result {
		cfg := DefaultConfig()
		cfg.Drift = &profile.Drift{Amplitude: 0.3, Seed: 5}
		return Run(cfg, tr, sched.SRTF())
	}
	a, b := run(), run()
	if faultFingerprint(a) != faultFingerprint(b) {
		t.Fatal("drifted run is not deterministic")
	}
	base := Run(DefaultConfig(), tr, sched.SRTF())
	if a.Summary.AvgJCT == base.Summary.AvgJCT && a.Summary.Makespan == base.Summary.Makespan {
		t.Error("drift at amplitude 0.3 left the run unchanged")
	}
}
