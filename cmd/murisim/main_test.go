package main

import (
	"testing"

	"muri/internal/sched"
)

// TestSingleConfigPlansOnPredictor: a single run of any policy plans on
// the online predictor, as murisched does, and gittins-pred ranks on that
// same predictor instance.
func TestSingleConfigPlansOnPredictor(t *testing.T) {
	for _, name := range sched.Names() {
		cfg, p, err := singleConfig(2, 8, name, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Estimator == nil {
			t.Errorf("%s: single run plans on submitted profiles, want the online predictor", name)
		}
		if g, ok := p.(*sched.Gittins); ok && any(g.Source) != any(cfg.Estimator) {
			t.Errorf("%s: ranks on %p, the run's estimator is %p", name, g.Source, cfg.Estimator)
		}
	}
	if _, _, err := singleConfig(2, 8, "bogus", 0); err == nil {
		t.Error("unknown policy accepted")
	}
}
