package sched

import (
	"testing"

	"muri/internal/profile"
)

// TestByName checks the one policy table: every name resolves to a
// policy reporting that name, and an unknown name errors.
func TestByName(t *testing.T) {
	est := profile.NewOnline()
	for _, name := range Names() {
		p, err := ByName(name, est)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("no-such-policy", est); err == nil {
		t.Error("ByName accepted an unknown policy")
	}
}
