package job

import (
	"testing"
	"testing/quick"
	"time"

	"muri/internal/workload"
)

func testModel() workload.Model {
	return workload.Model{
		Name:   "toy",
		Stages: workload.StageTimes{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond},
	}
}

func TestNewDefaults(t *testing.T) {
	j := New(7, testModel(), 4, 1000, 5*time.Minute)
	if j.State != Pending {
		t.Errorf("new job state = %v, want pending", j.State)
	}
	if j.Profile != j.TrueProfile {
		t.Errorf("profile %v != true profile %v", j.Profile, j.TrueProfile)
	}
	if j.StartedAt != -1 {
		t.Errorf("StartedAt = %v, want -1", j.StartedAt)
	}
	if j.Name != "toy" {
		t.Errorf("Name = %q, want model name", j.Name)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Profiling: "profiling", Pending: "pending", Running: "running",
		Done: "done", Deadletter: "deadletter", State(9): "state(9)"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d) = %q, want %q", int(s), got, want)
		}
		var back State
		if err := back.UnmarshalText([]byte(want)); (err == nil) != (s != State(9)) || (err == nil && back != s) {
			t.Errorf("UnmarshalText(%q) = %v, %v", want, back, err)
		}
	}
	var zero State
	if zero != Pending {
		t.Errorf("zero state = %v, want pending", zero)
	}
}

func TestRemainingAndTotal(t *testing.T) {
	j := New(1, testModel(), 2, 100, 0)
	if got, want := j.TotalTime(), 100*100*time.Millisecond; got != want {
		t.Errorf("TotalTime = %v, want %v", got, want)
	}
	j.DoneIterations = 40
	if got := j.RemainingIterations(); got != 60 {
		t.Errorf("RemainingIterations = %d, want 60", got)
	}
	if got, want := j.RemainingTime(), 60*100*time.Millisecond; got != want {
		t.Errorf("RemainingTime = %v, want %v", got, want)
	}
	j.DoneIterations = 200 // overshoot clamps to zero
	if got := j.RemainingIterations(); got != 0 {
		t.Errorf("overshot RemainingIterations = %d, want 0", got)
	}
}

func TestPriorities(t *testing.T) {
	j := New(1, testModel(), 4, 100, 0)
	// SRSF = remaining seconds × gpus = 10s × 4.
	if got := j.SRSF(); got != 40 {
		t.Errorf("SRSF = %v, want 40", got)
	}
	j.Attained = 2 * time.Second
	if got := j.LAS2D(); got != 8 {
		t.Errorf("LAS2D = %v, want 8", got)
	}
	// A job with fewer GPUs and the same remaining time is more urgent
	// under SRSF.
	small := New(2, testModel(), 1, 100, 0)
	if small.SRSF() >= j.SRSF() {
		t.Errorf("1-GPU SRSF %v should be < 4-GPU SRSF %v", small.SRSF(), j.SRSF())
	}
}

func TestAdvanceClampsAndAccumulates(t *testing.T) {
	j := New(1, testModel(), 1, 10, 0)
	credited := j.Advance(4, time.Second)
	if credited != 4 || j.DoneIterations != 4 {
		t.Errorf("Advance(4) credited %d, done %d; want 4, 4", credited, j.DoneIterations)
	}
	credited = j.Advance(100, time.Second)
	if credited != 6 || j.DoneIterations != 10 {
		t.Errorf("Advance(100) credited %d, done %d; want 6, 10", credited, j.DoneIterations)
	}
	if !j.Finished() {
		t.Error("job should be finished")
	}
	if j.Attained != 2*time.Second {
		t.Errorf("Attained = %v, want 2s", j.Attained)
	}
}

func TestAdvanceNeverExceedsTotal(t *testing.T) {
	f := func(total uint16, steps [8]uint8) bool {
		j := New(1, testModel(), 1, int64(total%500)+1, 0)
		for _, s := range steps {
			j.Advance(int64(s), time.Millisecond)
		}
		return j.DoneIterations <= j.Iterations && j.RemainingIterations() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJCT(t *testing.T) {
	j := New(1, testModel(), 1, 10, 2*time.Second)
	j.State = Done
	j.FinishedAt = 12 * time.Second
	if got := j.JCT(); got != 10*time.Second {
		t.Errorf("JCT = %v, want 10s", got)
	}
}

func TestJCTPanicsWhenNotDone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("JCT on pending job should panic")
		}
	}()
	New(1, testModel(), 1, 10, 0).JCT()
}

func TestStringContainsEssentials(t *testing.T) {
	s := New(3, testModel(), 8, 42, 0).String()
	for _, frag := range []string{"job 3", "toy", "8 GPUs", "42 iters"} {
		if !contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
