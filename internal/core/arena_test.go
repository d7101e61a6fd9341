package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"muri/internal/interleave"
	"muri/internal/job"
)

// mergeNodes is MergeNode on the heap path: the zero arena has no slabs,
// so every request falls through to an allocation.
func mergeNodes(u, v *node) *node {
	return new(planArena).merge(u, v)
}

// finalize is finalizeInto with freshly allocated result storage.
func (c Config) finalize(n *node, gpus int) Group {
	return c.finalizeInto(n, gpus, make([]*job.Job, len(n.jobs)), make([]int, len(n.jobs)))
}

// matchNodes matches a whole bucket into a fresh stream.
func (c Config) matchNodes(nodes []*node, _ []int32) []cachedProp {
	return c.matchShard(nodes, nil, nil)
}

// fullFingerprint renders everything a plan returns: members in plan
// order, the order slices themselves, plan timing and bucket.
func fullFingerprint(groups []Group) string {
	s := ""
	for _, g := range groups {
		s += fmt.Sprintf("%d %v %d %.17g:", g.GPUs, g.Plan.Order, g.Plan.IterTime, g.Plan.Efficiency)
		for _, j := range g.Jobs {
			s += fmt.Sprintf(" %d", j.ID)
		}
		s += "\n"
	}
	return s
}

// scaleConfig is the muri-l-scale shape: an estimator, four shards, a
// planner.
func scaleConfig() Config {
	c := DefaultConfig()
	c.RemainingIters = func(j *job.Job) int64 { return 100 + j.DoneIterations }
	c.Shards = 4
	c.Planner = NewPlanState()
	return c
}

// TestArenaResultOwnedByCaller: what Plan returns — groups, member lists,
// plan orders — aliases nothing the next Plan reuses, with and without a
// planner, sharded and not.
func TestArenaResultOwnedByCaller(t *testing.T) {
	for name, c := range map[string]Config{"plain": DefaultConfig(), "scale": scaleConfig()} {
		first := c.Plan(singleGPUJobs(200, 5), 64)
		want := fullFingerprint(first)
		for round := 0; round < 3; round++ {
			c.Plan(mixedJobs(150+40*round), 64)
			c.Plan(singleGPUJobs(200, 5), 64) // the same queue: replayed streams
		}
		if got := fullFingerprint(first); got != want {
			t.Errorf("%s: a later Plan changed an earlier result:\n%s\nwas\n%s", name, got, want)
		}
	}
}

// TestArenaReleasedHoldsNoJob: after release, no slot of the arena, used or
// spare, holds a job, a node or a proposal stream, so a pooled arena pins
// nothing; neither does a pooled graphScratch.
func TestArenaReleasedHoldsNoJob(t *testing.T) {
	a := new(planArena)
	c := scaleConfig()
	for _, jobs := range [][]*job.Job{singleGPUJobs(300, 7), mixedJobs(120)} {
		if len(c.plan(a, jobs, 64)) == 0 {
			t.Fatal("empty plan")
		}
		a.release()
		for i, j := range a.jobs[:cap(a.jobs)] {
			if j != nil {
				t.Fatalf("jobs[%d] still holds job %d", i, j.ID)
			}
		}
		for i, n := range a.nodes[:cap(a.nodes)] {
			if n.jobs != nil || n.profiles != nil {
				t.Fatalf("nodes[%d] still holds its windows", i)
			}
		}
		for i, n := range a.ptrs[:cap(a.ptrs)] {
			if n != nil {
				t.Fatalf("ptrs[%d] still holds a node", i)
			}
		}
		for i, st := range a.states[:cap(a.states)] {
			if st.nodes != nil || st.props != nil {
				t.Fatalf("states[%d] still holds plan state: %+v", i, st)
			}
		}
	}
	s := scratchPool.Get().(*graphScratch)
	for i, n := range s.sub[:cap(s.sub)] {
		if n != nil {
			t.Fatalf("pooled graphScratch.sub[%d] still holds a node", i)
		}
	}
}

// TestArenaOutgrownFallsBackToHeap: nodes requested past what the slabs
// were reserved for come from the heap — no panic, no window overwritten —
// and a plan in an arena last sized for a much smaller queue equals the
// plan in a fresh one.
func TestArenaOutgrownFallsBackToHeap(t *testing.T) {
	jobs := singleGPUJobs(64, 9)
	a := new(planArena)
	a.reserve(4, 4)
	var nodes []*node
	for _, j := range jobs {
		n := a.newNode(1)
		n.jobs[0], n.profiles[0] = j, j.Profile
		nodes = append(nodes, n)
	}
	for len(nodes) > 16 {
		nodes = append(nodes[2:], a.merge(nodes[0], nodes[1]))
	}
	seen := map[job.ID]bool{}
	for _, n := range nodes {
		for i, j := range n.jobs {
			if seen[j.ID] || n.profiles[i] != j.Profile {
				t.Fatalf("node members corrupted: job %d seen=%v profile %v", j.ID, seen[j.ID], n.profiles[i])
			}
			seen[j.ID] = true
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("%d of %d jobs survive the merges", len(seen), len(jobs))
	}

	small, big := singleGPUJobs(16, 3), mixedJobs(300)
	c := DefaultConfig()
	b := new(planArena)
	c.plan(b, small, 8)
	b.release()
	got := fullFingerprint(c.plan(b, big, 64))
	if want := fullFingerprint(c.plan(new(planArena), big, 64)); got != want {
		t.Fatalf("plan in an outgrown arena differs from a fresh one:\n%s\nvs\n%s", got, want)
	}
}

// TestArenaShardedPlansConcurrent runs sharded, incremental planning from
// several goroutines at once on four Ps — each with its own planner, all
// sharing the arena, scratch and matcher pools and one EffCache — and
// checks every plan against the serial, unpooled result. Under -race this
// is the data-race test for the arena's result windows and the cache's
// batched fill.
func TestArenaShardedPlansConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	queues := [][]*job.Job{singleGPUJobs(300, 11), mixedJobs(260), singleGPUJobs(120, 12)}
	serial := scaleConfig()
	serial.Cache, serial.Planner = interleave.NewEffCache(0), nil
	want := make([]string, len(queues))
	for i, q := range queues {
		want[i] = fullFingerprint(serial.plan(new(planArena), q, 64))
	}
	cache := interleave.NewEffCache(64) // small: generations rotate under load
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := scaleConfig()
			c.Cache = cache
			for round := 0; round < 6; round++ {
				i := (w + round) % len(queues)
				if got := fullFingerprint(c.Plan(queues[i], 64)); got != want[i] {
					t.Errorf("worker %d round %d: concurrent plan differs from serial:\n%s\nvs\n%s", w, round, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
