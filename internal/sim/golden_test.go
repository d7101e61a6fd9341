package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"muri/internal/sched"
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
	"muri-l":             "de8db3578ad4ec4f3e2eea461f5dc391766896ddf818324ba8b58aec630e868c",
	"muri-l-event":       "141124c9360a5db22df203c282bb9728be09c27c32973546354e6e5c751837d1",
	"muri-l-chaos":       "fab78744580bec528540ea917d87a7bd5de1c14a2e7538125b3426edbd3b39a1",
	"srtf-chaos-event":   "b96bb21e995b2da71b5c46660fba5a7a18b48143cb920396ec4350a73843398c",
	"muri-l-chaos-event": "8fd33b2f696bf212acbddaa999c6e812419e72418cbf3eb84e1c21ce95cc0d66",
	"fifo-event":         "a1fc4d4c0647dff3dae759ea07e803b2845aa8cc1dffb3fe03045c6be360d0ee",
	"antman-event":       "ddab981a581868e86c19c3737df7bb7b1e65f3482d1f70d2ae0b2d3a4bfc03df",
	"fifo-chaos-event":   "acb0e334ed90fd3396744229262007e851ce4c0220f9b00fc6587751d9f0a77f",
}

// goldenCases builds each pinned configuration fresh (policies carry
// state, so they cannot be shared across runs).
func goldenCases() map[string]func() Result {
	dt := determinismTrace()
	ct := chaosTrace()
	event := func(cfg Config) Config { cfg.EventDriven = true; return cfg }
	return map[string]func() Result{
		"fifo":   func() Result { return Run(DefaultConfig(), dt, sched.FIFO()) },
		"srtf":   func() Result { return Run(DefaultConfig(), dt, sched.SRTF()) },
		"antman": func() Result { return Run(DefaultConfig(), dt, sched.AntMan{}) },
		"muri-s": func() Result { return Run(DefaultConfig(), dt, sched.NewMuriS()) },
		"muri-l": func() Result { return Run(DefaultConfig(), dt, sched.NewMuriL()) },
		"muri-l-event": func() Result {
			return Run(event(DefaultConfig()), dt, sched.NewMuriL())
		},
		"muri-l-chaos": func() Result {
			return Run(chaosConfig(chaosPlan(7, 4)), ct, sched.NewMuriL())
		},
		"srtf-chaos-event": func() Result {
			return Run(event(chaosConfig(chaosPlan(4, 4))), ct, sched.SRTF())
		},
		"muri-l-chaos-event": func() Result {
			return Run(event(chaosConfig(chaosPlan(7, 4))), ct, sched.NewMuriL())
		},
		// Non-preemptive event-driven runs keep units across rounds, so
		// completions shrink running units between clock queries.
		"fifo-event":   func() Result { return Run(event(DefaultConfig()), dt, sched.FIFO()) },
		"antman-event": func() Result { return Run(event(DefaultConfig()), dt, sched.AntMan{}) },
		"fifo-chaos-event": func() Result {
			return Run(event(chaosConfig(chaosPlan(4, 4))), ct, sched.FIFO())
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
	for name, run := range goldenCases() {
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
