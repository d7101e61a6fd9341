package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"muri/internal/job"
	"muri/internal/workload"
)

// planFingerprint serializes a plan's group structure for equality checks.
func planFingerprint(groups []Group) string {
	s := ""
	for _, g := range groups {
		s += fmt.Sprintf("[%d:", g.GPUs)
		for _, j := range g.Jobs {
			s += fmt.Sprintf("%d,", j.ID)
		}
		s += "]"
	}
	return s
}

// singleGPUJobs builds n single-GPU jobs with random stage shapes: one
// bucket, every node its own class.
func singleGPUJobs(n int, seed int64) []*job.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*job.Job, 0, n)
	for i := 0; i < n; i++ {
		var st workload.StageTimes
		for r := 0; r < workload.NumResources; r++ {
			st[r] = time.Duration(rng.Intn(200)+10) * time.Millisecond
		}
		jobs = append(jobs, mkJob(i, 1, st))
	}
	return jobs
}

// TestShardOfProperties pins the shard hash contract: assignments are in
// range, stable for a fixed (id, epoch), and the epoch salt actually
// reshuffles the partition (the cross-shard rebalance: pairs split by
// one partition get a chance to meet after any merge).
func TestShardOfProperties(t *testing.T) {
	const shards = 4
	moved := 0
	counts := make([]int, shards)
	for id := 0; id < 4096; id++ {
		s := shardOf(job.ID(id), 0, shards)
		if s < 0 || s >= shards {
			t.Fatalf("shardOf(%d, 0, %d) = %d out of range", id, shards, s)
		}
		if s != shardOf(job.ID(id), 0, shards) {
			t.Fatalf("shardOf unstable for id %d", id)
		}
		if s != shardOf(job.ID(id), 1, shards) {
			moved++
		}
		counts[s]++
	}
	if moved < 4096/4 {
		t.Errorf("epoch salt moved only %d/4096 ids; rebalance is too weak", moved)
	}
	for s, n := range counts {
		if n < 4096/shards/2 || n > 4096*2/shards {
			t.Errorf("shard %d holds %d/4096 ids; partition badly skewed", s, n)
		}
	}
}

// TestEffectiveShards covers the engagement threshold and the
// minimum-nodes-per-shard cap.
func TestEffectiveShards(t *testing.T) {
	cases := []struct {
		shards, n, want int
	}{
		{0, 1000, 1}, // unsharded config
		{1, 1000, 1}, // explicit serial
		{4, 31, 1},   // below the threshold
		{4, 32, 2},   // at threshold, capped by 32/16
		{4, 64, 4},   // full fan-out
		{8, 64, 4},   // capped: 64/16 = 4 shards
		{8, 1000, 8}, // large bucket, full fan-out
	}
	for _, tc := range cases {
		c := Config{Shards: tc.shards}
		if got := c.effectiveShards(tc.n); got != tc.want {
			t.Errorf("effectiveShards(shards=%d n=%d) = %d, want %d",
				tc.shards, tc.n, got, tc.want)
		}
	}
}

// TestShardsOneBitIdentical is the sharding safety property: Shards=1 must
// produce exactly the plan of the unsharded configuration.
func TestShardsOneBitIdentical(t *testing.T) {
	base := DefaultConfig()
	want := planFingerprint(base.Plan(singleGPUJobs(300, 21), 64))

	one := DefaultConfig()
	one.Shards = 1
	if got := planFingerprint(one.Plan(singleGPUJobs(300, 21), 64)); got != want {
		t.Fatalf("Shards=1 plan differs from unsharded:\n%s\nvs\n%s", got, want)
	}
}

// TestShardedPlanDeterministic runs sharded planning repeatedly: shard
// tasks run concurrently, but indexed result slots and shard-order
// concatenation make the plan a pure function of (jobs, config).
func TestShardedPlanDeterministic(t *testing.T) {
	mk := func() string {
		c := DefaultConfig()
		c.Shards = 4
		return planFingerprint(c.Plan(singleGPUJobs(300, 22), 64))
	}
	want := mk()
	if want == "" {
		t.Fatal("empty plan")
	}
	for run := 0; run < 3; run++ {
		if got := mk(); got != want {
			t.Fatalf("sharded plan not deterministic (run %d):\n%s\nvs\n%s", run, got, want)
		}
	}
}

// shardWeightFloor is the measured floor of TestShardedMatchingWeightBound:
// the lowest ratio over its 64 seeded buckets (0.9606), rounded down.
const shardWeightFloor = 0.96

// TestShardedMatchingWeightBound is the sharding quality property
// (DESIGN.md §10): one sharded sweep under the merge gate retains at least
// shardWeightFloor of the unsharded (exact) matching weight, over 64
// seeded buckets. Pair efficiencies cluster near the top of the scale, so
// a random node partition still offers every node a near-best partner
// inside its own shard.
func TestShardedMatchingWeightBound(t *testing.T) {
	if testing.Short() {
		t.Skip("dense Blossom runs are slow")
	}
	weight := func(props []cachedProp) float64 {
		s := 0.0
		for _, p := range props {
			s += p.weight
		}
		return s
	}
	floor := 1.0
	for trial := 0; trial < 64; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		n := 100 + rng.Intn(150)
		jobs := singleGPUJobs(n, int64(400+trial))
		nodes := make([]*node, len(jobs))
		for i, j := range jobs {
			nodes[i] = &node{jobs: []*job.Job{j}, profiles: []workload.StageTimes{j.Model.Stages}}
		}
		serial := DefaultConfig()
		dense := weight(serial.matchNodes(nodes, nil))

		sharded := serial
		sharded.Shards = 4
		st := &bucketState{gpus: 1, nodes: nodes}
		split := weight(sharded.sweepProposals(st))
		if dense <= 0 {
			continue
		}
		floor = min(floor, split/dense)
		if split < shardWeightFloor*dense {
			t.Errorf("trial %d: sharded matching weight %.4f < %.2f of unsharded %.4f (n=%d)",
				trial, split, shardWeightFloor, dense, n)
		}
	}
	t.Logf("lowest sharded/unsharded weight ratio over 64 buckets: %.4f", floor)
}

// TestIncrementalPlanBitIdentical is the correctness property of the
// planner memo: over a multi-seed script of arrivals, completions, and
// remaining-iteration changes (the quantized-estimate analogue of faults
// and preemptions), a persistent Planner must reproduce the exact plan of
// full re-matching, round for round — sharded and unsharded.
func TestIncrementalPlanBitIdentical(t *testing.T) {
	for _, shards := range []int{0, 4} {
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			rem := map[job.ID]int64{}
			remFn := func(j *job.Job) int64 { return rem[j.ID] }

			inc := DefaultConfig()
			inc.RemainingIters = remFn
			inc.Shards = shards
			inc.Planner = NewPlanState()
			full := inc
			full.Planner = nil

			var pop []*job.Job
			nextID := 0
			for round := 0; round < 40; round++ {
				for k := rng.Intn(8); k > 0; k-- {
					var stg workload.StageTimes
					for r := 0; r < workload.NumResources; r++ {
						stg[r] = time.Duration(rng.Intn(200)+10) * time.Millisecond
					}
					j := mkJob(nextID, 1<<rng.Intn(3), stg)
					rem[j.ID] = 100 << rng.Intn(4)
					pop = append(pop, j)
					nextID++
				}
				for k := rng.Intn(3); k > 0 && len(pop) > 0; k-- {
					i := rng.Intn(len(pop))
					pop = append(pop[:i], pop[i+1:]...)
				}
				for _, j := range pop {
					if rng.Intn(10) == 0 && rem[j.ID] > 1 {
						rem[j.ID] /= 2 // quantized estimate decay
					}
				}
				a := planFingerprint(inc.Plan(pop, 64))
				b := planFingerprint(full.Plan(pop, 64))
				if a != b {
					t.Fatalf("shards=%d seed=%d round=%d: incremental plan diverged:\n%s\nvs\n%s",
						shards, seed, round, a, b)
				}
			}
			st := inc.Planner.Stats()
			if st.ReplaySweeps == 0 {
				t.Errorf("shards=%d seed=%d: the memo never served a previous plan's match (fresh=%d fixpoint=%d)",
					shards, seed, st.FreshSweeps, st.FixpointSweeps)
			}
		}
	}
}

// TestMemoServesUnchangedShards: the memo works per shard, not per bucket.
// One arrival changes one of the four shards of the first sweep; the other
// three must still be served from the previous plan, and the plan must
// equal full re-matching.
func TestMemoServesUnchangedShards(t *testing.T) {
	zoo := workload.Zoo()
	jobs := make([]*job.Job, 97)
	for i := range jobs {
		jobs[i] = job.New(job.ID(i), zoo[i%len(zoo)], 1, 50_000, 0)
	}
	inc := DefaultConfig()
	inc.RemainingIters = func(*job.Job) int64 { return 1000 }
	inc.Shards = 4
	inc.Planner = NewPlanState()
	full := inc
	full.Planner = nil

	inc.Plan(jobs[:96], 64)
	before := inc.Planner.Stats()
	got := planFingerprint(inc.Plan(jobs, 64))
	if want := planFingerprint(full.Plan(jobs, 64)); got != want {
		t.Fatalf("memoized plan diverged from full re-matching:\n%s\nvs\n%s", got, want)
	}
	after := inc.Planner.Stats()
	if served := after.ReplaySweeps - before.ReplaySweeps; served < 3 {
		t.Errorf("one arrival left %d shard matchings served from the previous plan, want ≥ 3 (fresh %d → %d)",
			served, before.FreshSweeps, after.FreshSweeps)
	}
}
