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
	// The paper reports <3% against real hardware (§6.1). The prototype
	// sleeps to stage-slot deadlines on one clock per group, so timer
	// overshoot does not accumulate into JCTs; what remains is progress
	// report and round quantization, well inside 10%.
	if res.JCTError > 0.10 {
		t.Errorf("JCT error = %.1f%% (sim %v vs live %v), want ≤ 10%%",
			100*res.JCTError, res.SimAvgJCT, res.LiveAvgJCT)
	}
	if res.MakespanError > 0.10 {
		t.Errorf("makespan error = %.1f%% (sim %v vs live %v), want ≤ 10%%",
			100*res.MakespanError, res.SimMakespan, res.LiveMakespan)
	}
}
