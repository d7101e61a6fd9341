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
	"muri-l-event":       "7c9191ff7285c589feb7056cdf4d8139bd9f4ec1b359fc9dbeca7b0a3d0189e7",
	"muri-l-chaos":       "e2fb218751738a228aa0c29cd2e3b9642bcf0e44c0a18271aa75d936217ff4d5",
	"srtf-chaos-event":   "9017f4325023aecaaa354e348a4e58922d83c47d42652aadb61215c19a2ccf67",
	"muri-l-chaos-event": "9224865bc2fceec41089b5a2f2dffe1a43e28b2228deea03788f4421ee67e513",
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
