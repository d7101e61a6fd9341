package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"muri/internal/blossom"
	"muri/internal/interleave"
	"muri/internal/job"
	"muri/internal/workload"
)

// randomBucket draws one bucket's nodes: single jobs plus pre-merged
// nodes of 2–3 members, with profiles either drawn from a small pool
// (many duplicates, the zoo case) or all distinct (the noisy-profile
// case, where every node is its own class).
func randomBucket(rng *rand.Rand, n int, distinct bool) []*node {
	pool := make([]workload.StageTimes, 5)
	draw := func() workload.StageTimes {
		var s workload.StageTimes
		for r := range s {
			s[r] = time.Duration(1+rng.Intn(200)) * time.Millisecond
		}
		return s
	}
	for i := range pool {
		pool[i] = draw()
	}
	nodes := make([]*node, n)
	id := 0
	for i := range nodes {
		members := 1
		if rng.Intn(4) == 0 {
			members = 2 + rng.Intn(2)
		}
		nd := &node{}
		for m := 0; m < members; m++ {
			p := pool[rng.Intn(len(pool))]
			if distinct {
				p = draw()
			}
			j := job.New(job.ID(id), workload.Model{Name: "m", Stages: p}, 1, 100_000, 0)
			j.DoneIterations = int64(rng.Intn(90_000))
			id++
			nd.jobs = append(nd.jobs, j)
			nd.profiles = append(nd.profiles, p)
		}
		nodes[i] = nd
	}
	return nodes
}

// pairwiseGraph is the reference construction: every pair evaluated on
// its own from fresh best-ordering statistics (interleave.BestOrdering)
// and the gate, with no classes, no table and no cache.
func pairwiseGraph(c Config, nodes []*node) ([]blossom.Edge, []float64) {
	fresh := func(times []workload.StageTimes) (time.Duration, float64) {
		_, t, eff := interleave.BestOrdering(c.Interleave.Inflate(times))
		return t, eff
	}
	self := func(nd *node) stat {
		t, eff := fresh(nd.profiles)
		return stat{t: t, eff: eff}
	}
	var edges []blossom.Edge
	var gains []float64
	for u := range nodes {
		for v := u + 1; v < len(nodes); v++ {
			nu, nv := nodes[u], nodes[v]
			if len(nu.jobs)+len(nv.jobs) > c.maxGroup() {
				continue
			}
			both := append(append([]workload.StageTimes{}, nu.profiles...), nv.profiles...)
			t, eff := fresh(both)
			if eff <= 0 {
				continue
			}
			c.nodeRemStats(nu)
			c.nodeRemStats(nv)
			d := nu.gateTerms(self(nu).t).jctGain(nv.gateTerms(self(nv).t), t)
			if d <= 0 {
				continue
			}
			edges = append(edges, blossom.Edge{I: u, J: v, Weight: eff})
			gains = append(gains, d.Seconds())
		}
	}
	return edges, gains
}

// TestBucketGraphMatchesPairwise is the property behind the class-indexed
// graph: over random buckets and every configuration axis the table
// depends on — the gate in both production shapes, true remaining
// iterations (Muri-S) and an LAS-style estimate (Muri-L), and a cache so
// small its interner and generations turn over — bucketGraph's edges and
// gains equal (==, bit for bit) the pair-by-pair reference, on a cold
// scratch and on a reused one. The 256- and 300-node buckets at the
// default config pin that no gated edge is withheld from the matcher at
// any size.
func TestBucketGraphMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	las := func(j *job.Job) int64 { return max(j.DoneIterations, 100) }
	scratch := new(graphScratch)
	check := func(label string, c Config, nodes []*node) {
		t.Helper()
		wantE, wantG := pairwiseGraph(c, nodes)
		for pass, s := range []*graphScratch{new(graphScratch), scratch} {
			gotE, gotG := c.bucketGraph(nodes, s)
			if len(gotE) != len(wantE) || len(gotG) != len(wantG) {
				t.Fatalf("%s pass %d: %d edges / %d gains, reference %d / %d",
					label, pass, len(gotE), len(gotG), len(wantE), len(wantG))
			}
			for i := range wantE {
				if gotE[i] != wantE[i] || gotG[i] != wantG[i] {
					t.Fatalf("%s pass %d: edge %d = %+v gain %v, reference %+v gain %v",
						label, pass, i, gotE[i], gotG[i], wantE[i], wantG[i])
				}
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		c := DefaultConfig()
		c.MaxGroupSize = 2 + trial%3
		tiny := trial%2 == 0
		if tiny {
			c.Cache = interleave.NewEffCache(8)
		}
		if (trial/3)%2 == 1 {
			c.RemainingIters = las
		}
		n := 2 + rng.Intn(30)
		distinct := rng.Intn(3) == 0
		label := fmt.Sprintf("trial %d (n=%d k=%d las=%v tiny-cache=%v distinct=%v)",
			trial, n, c.MaxGroupSize, c.RemainingIters != nil, tiny, distinct)
		check(label, c, randomBucket(rng, n, distinct))
	}
	for _, n := range []int{256, 300} {
		for _, distinct := range []bool{false, true} {
			check(fmt.Sprintf("default config (n=%d distinct=%v)", n, distinct),
				DefaultConfig(), randomBucket(rng, n, distinct))
		}
	}
}

// TestFinalizeMemoColdWarm checks the ordering memo: finalize returns,
// from a cold cache and from a warm one, the Group that
// interleave.Config.PlanGroup's best ordering makes of the node — also
// for two nodes that hold the same profiles in different member order,
// whose chosen permutations differ.
func TestFinalizeMemoColdWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	render := func(g Group) string { return fullFingerprint([]Group{g}) }
	cached := DefaultConfig()
	fresh := func(n *node) Group {
		p := cached.Interleave.PlanGroup(n.profiles, false)
		g := Group{GPUs: 1, Plan: interleave.Plan{IterTime: p.IterTime, Efficiency: p.Efficiency}}
		for pos, idx := range p.Order {
			g.Jobs = append(g.Jobs, n.jobs[idx])
			g.Plan.Order = append(g.Plan.Order, pos)
		}
		return g
	}
	for trial := 0; trial < 200; trial++ {
		nd := randomBucket(rng, 1, trial%2 == 0)[0]
		for len(nd.jobs) < 2+trial%3 {
			if extra := randomBucket(rng, 1, true)[0]; len(nd.jobs)+len(extra.jobs) <= interleave.MaxGroupSize {
				nd = mergeNodes(nd, extra)
			}
		}
		flipped := &node{}
		for i := len(nd.jobs) - 1; i >= 0; i-- {
			flipped.jobs = append(flipped.jobs, nd.jobs[i])
			flipped.profiles = append(flipped.profiles, nd.profiles[i])
		}
		cached.Cache = interleave.NewEffCache(0)
		for _, n := range []*node{nd, flipped} {
			want := render(fresh(n))
			cold := render(cached.finalize(n, 1))
			n.cls = interleave.Classes{} // re-intern, as the next Plan call would
			warm := render(cached.finalize(n, 1))
			if cold != want || warm != want {
				t.Fatalf("trial %d: finalize differs\nfresh: %s\ncold:  %s\nwarm:  %s", trial, want, cold, warm)
			}
		}
		if st := cached.Cache.Stats(); st.Hits == 0 {
			t.Fatalf("trial %d: warm finalize never hit the memo: %+v", trial, st)
		}
	}
}

// TestReplayInvalidatedByProfileChange is the regression test for stale
// incremental plans: estimators rewrite job.Profile mid-run, so a bucket
// whose job IDs and remaining-iteration estimates are unchanged must
// still be re-matched once a profile moves.
func TestReplayInvalidatedByProfileChange(t *testing.T) {
	zoo := workload.Zoo()
	jobs := make([]*job.Job, 12)
	for i := range jobs {
		jobs[i] = job.New(job.ID(i), zoo[i%len(zoo)], 1, 50_000, 0)
	}
	inc := DefaultConfig()
	inc.Planner = NewPlanState()
	before := planFingerprint(inc.Plan(jobs, 4))
	if again := planFingerprint(inc.Plan(jobs, 4)); again != before {
		t.Fatalf("unchanged queue replanned differently:\n%s\nvs\n%s", before, again)
	}
	if inc.Planner.Stats().ReplaySweeps == 0 {
		t.Fatal("unchanged queue was not replayed; the test would prove nothing")
	}

	first := jobs[0].Profile
	for i := range jobs[:len(jobs)-1] {
		jobs[i].Profile = jobs[i+1].Profile
	}
	jobs[len(jobs)-1].Profile = first

	got := planFingerprint(inc.Plan(jobs, 4))
	want := planFingerprint(DefaultConfig().Plan(jobs, 4))
	if got != want {
		t.Fatalf("incremental plan is stale after a profile change:\nincremental:\n%s\nfresh:\n%s", got, want)
	}
	if got == before {
		t.Fatal("rotating the profiles left the plan unchanged; pick a rotation that regroups")
	}
}

// planAllocCeiling bounds the heap allocations of one warm Config.Plan on
// the fixed 128-job queue below. It is the deterministic regression gate
// for the planning path: raise it only with a reason. Measured 5 with the
// plan arena — the groups, their member and order slabs, and one proposal
// stream per sweep; the slack covers a collection emptying the pools
// mid-measurement. 471 when the class-indexed graph landed, 2,379 before.
const planAllocCeiling = 8

func TestPlanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	cfg := DefaultConfig()
	cfg.RemainingIters = func(j *job.Job) int64 { return 100 + j.DoneIterations }
	jobs := mixedJobs(128)
	cfg.Plan(jobs, 64)
	allocs := testing.AllocsPerRun(20, func() { cfg.Plan(jobs, 64) })
	t.Logf("warm Plan over %d jobs: %.0f allocs", len(jobs), allocs)
	if allocs > planAllocCeiling {
		t.Fatalf("warm Plan allocates %.0f times, ceiling %d", allocs, planAllocCeiling)
	}
}
