package experiments

import (
	"testing"
)

func TestFidelitySimVsPrototype(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a live scheduler with wall-clock sleeps")
	}
	fc := DefaultFidelityConfig()
	fc.Jobs = 8
	fc.IterationsPerJob = 20
	res, err := RunFidelity(fc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimAvgJCT <= 0 || res.LiveAvgJCT <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	// The paper reports <3% against real hardware; against the sleep-based
	// prototype (timer granularity, report quantization) we accept 35%.
	if res.JCTError > 0.35 {
		t.Errorf("JCT error = %.1f%% (sim %v vs live %v), want ≤ 35%%",
			100*res.JCTError, res.SimAvgJCT, res.LiveAvgJCT)
	}
	if res.MakespanError > 0.35 {
		t.Errorf("makespan error = %.1f%% (sim %v vs live %v), want ≤ 35%%",
			100*res.MakespanError, res.SimMakespan, res.LiveMakespan)
	}
}
