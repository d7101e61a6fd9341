package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"muri/internal/engine"
	"muri/internal/sched"
	"muri/internal/trace"
)

// goldenHashes pins the exact simulator output — SHA-256 over the full
// metric fingerprint (summary, per-job finish times, restarts, and fault
// counters) — for a spread of policies and configurations. The values
// were captured on the pre-engine-refactor tree; the engine extraction
// must keep every one of them bit-identical. If a deliberate behavior
// change ever lands, blank the affected entries and re-run the test —
// it prints the fresh hash for any unset entry.
var goldenHashes = map[string]string{
	"fifo":               "f3ea43cda19905f5d80df32624d57fa306d7cf13ac1c5ed6f33d226d3e28cb36",
	"srtf":               "72339059300d3ebd81342183d3002a2eca2782c95f9a4db7f736e2f0ab4d4267",
	"antman":             "e8a4719c82e55dd5c5595867828cf6d927d0dea59c1575672014dcb513648af7",
	"muri-s":             "bef2371d89bdf86aa90e9c890b4ff0743673097be645b854cfcef996008f2cd7",
	"muri-l":             "cc67e5e1fcf6ced6ba866a289cb3a00b8cd54f8ac802a8e68f9906ab088c8515",
	"muri-l-event":       "0081ef66494591c13a4a9b2d1a334072cc94d0092147e97da069aa6d2c4a3066",
	"muri-l-chaos":       "ea51f36c9283c944100c12bdc018b65efd0a5c11c35bc938a147379ded592ffe",
	"srtf-chaos-event":   "b96bb21e995b2da71b5c46660fba5a7a18b48143cb920396ec4350a73843398c",
	"muri-l-chaos-event": "09582f0193ce36fcd4806b61de09b91990e52b2720e3684f1aeaacb5c9668192",
	"fifo-event":         "a1fc4d4c0647dff3dae759ea07e803b2845aa8cc1dffb3fe03045c6be360d0ee",
	"antman-event":       "ddab981a581868e86c19c3737df7bb7b1e65f3482d1f70d2ae0b2d3a4bfc03df",
	"fifo-chaos-event":   "acb0e334ed90fd3396744229262007e851ce4c0220f9b00fc6587751d9f0a77f",
}

// goldenCases builds each pinned configuration fresh (policies carry
// state, so they cannot be shared across runs). Every run hands its
// decisions to observer (nil for none), which changes no result.
func goldenCases(observer func(engine.Decision)) map[string]func() Result {
	dt := determinismTrace()
	ct := chaosTrace()
	event := func(cfg Config) Config { cfg.EventDriven = true; return cfg }
	run := func(cfg Config, tr trace.Trace, p sched.Policy) Result {
		cfg.Observer = observer
		return Run(cfg, tr, p)
	}
	return map[string]func() Result{
		"fifo":   func() Result { return run(DefaultConfig(), dt, sched.FIFO()) },
		"srtf":   func() Result { return run(DefaultConfig(), dt, sched.SRTF()) },
		"antman": func() Result { return run(DefaultConfig(), dt, sched.AntMan{}) },
		"muri-s": func() Result { return run(DefaultConfig(), dt, sched.NewMuriS()) },
		"muri-l": func() Result { return run(DefaultConfig(), dt, sched.NewMuriL()) },
		"muri-l-event": func() Result {
			return run(event(DefaultConfig()), dt, sched.NewMuriL())
		},
		"muri-l-chaos": func() Result {
			return run(chaosConfig(chaosPlan(7, 4)), ct, sched.NewMuriL())
		},
		"srtf-chaos-event": func() Result {
			return run(event(chaosConfig(chaosPlan(4, 4))), ct, sched.SRTF())
		},
		"muri-l-chaos-event": func() Result {
			return run(event(chaosConfig(chaosPlan(7, 4))), ct, sched.NewMuriL())
		},
		// Non-preemptive event-driven runs keep units across rounds, so
		// completions shrink running units between clock queries.
		"fifo-event":   func() Result { return run(event(DefaultConfig()), dt, sched.FIFO()) },
		"antman-event": func() Result { return run(event(DefaultConfig()), dt, sched.AntMan{}) },
		"fifo-chaos-event": func() Result {
			return run(event(chaosConfig(chaosPlan(4, 4))), ct, sched.FIFO())
		},
	}
}

func goldenHash(r Result) string {
	sum := sha256.Sum256([]byte(faultFingerprint(r)))
	return hex.EncodeToString(sum[:])
}

// TestGoldenResults replays every pinned configuration and compares the
// fingerprint hash against the recorded golden value.
func TestGoldenResults(t *testing.T) {
	for name, run := range goldenCases(nil) {
		t.Run(name, func(t *testing.T) {
			got := goldenHash(run())
			want := goldenHashes[name]
			if want == "" {
				t.Logf("golden[%q] = %q (unset; record this value)", name, got)
				t.Fail()
				return
			}
			if got != want {
				t.Errorf("result diverged from pre-refactor golden value\n got %s\nwant %s", got, want)
			}
		})
	}
}
