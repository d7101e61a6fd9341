package sched

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"muri/internal/job"
)

// refOrder is the ordering every policy used before sortJobs became the
// single primitive: a stable reflection sort whose comparator evaluates
// the key on both sides, then Submit, then ID. Kept as the reference.
func refOrder(jobs []*job.Job, key func(*job.Job) float64, descending bool) []*job.Job {
	out := append([]*job.Job{}, jobs...)
	sort.SliceStable(out, func(i, k int) bool {
		a, b := key(out[i]), key(out[k])
		if a != b {
			if descending {
				return a > b
			}
			return a < b
		}
		if out[i].Submit != out[k].Submit {
			return out[i].Submit < out[k].Submit
		}
		return out[i].ID < out[k].ID
	})
	return out
}

func refExclusive(jobs []*job.Job) []Unit {
	units := make([]Unit, len(jobs))
	for i, j := range jobs {
		units[i] = Unit{Jobs: []*job.Job{j}, GPUs: j.GPUs, Mode: Exclusive}
	}
	return units
}

// refAntMan is AntMan.Plan as it was written over the reference sort.
func refAntMan(degree int, jobs []*job.Job) []Unit {
	ordered := refOrder(jobs, func(j *job.Job) float64 { return j.Submit.Seconds() }, false)
	var units []Unit
	pendingByGPU := make(map[int][]*job.Job)
	flush := func(g int) {
		batch := pendingByGPU[g]
		if len(batch) == 0 {
			return
		}
		mode := SpaceShared
		if len(batch) == 1 {
			mode = Exclusive
		}
		units = append(units, Unit{Jobs: batch, GPUs: g, Mode: mode})
		pendingByGPU[g] = nil
	}
	for _, j := range ordered {
		pendingByGPU[j.GPUs] = append(pendingByGPU[j.GPUs], j)
		if len(pendingByGPU[j.GPUs]) == degree {
			flush(j.GPUs)
		}
	}
	var gs []int
	for g, batch := range pendingByGPU {
		if len(batch) > 0 {
			gs = append(gs, g)
		}
	}
	sort.Ints(gs)
	for _, g := range gs {
		flush(g)
	}
	sort.SliceStable(units, func(i, k int) bool {
		return units[i].Jobs[0].Submit < units[k].Jobs[0].Submit
	})
	return units
}

func refDRFKey(capacity int) func(*job.Job) float64 {
	return func(j *job.Job) float64 {
		max := 0.0
		for _, v := range demandVector(j) {
			if v > max {
				max = v
			}
		}
		share := float64(j.GPUs) * max
		if capacity > 0 {
			share /= float64(capacity)
		}
		return share
	}
}

func refTetrisScore(jobs []*job.Job) func(*job.Job) float64 {
	maxRem := time.Duration(1)
	for _, j := range jobs {
		if r := j.RemainingTime(); r > maxRem {
			maxRem = r
		}
	}
	return func(j *job.Job) float64 {
		align := 0.0
		for _, v := range demandVector(j) {
			align += v
		}
		srtf := 1 - float64(j.RemainingTime())/float64(maxRem)
		return 0.5*align + 0.5*srtf
	}
}

// tiedQueue draws a queue whose keys and submit times collide heavily:
// two models, a handful of iteration counts, progress values, GPU sizes
// and submit instants, unique IDs in shuffled order.
func tiedQueue(rng *rand.Rand) []*job.Job {
	models := []string{"gpt2", "resnet18"}
	n := 2 + rng.Intn(60)
	jobs := make([]*job.Job, n)
	for i, id := range rng.Perm(n) {
		j := mk(id, models[rng.Intn(len(models))], 1<<rng.Intn(4),
			int64(100*(1+rng.Intn(3))), time.Duration(rng.Intn(4))*time.Minute)
		j.DoneIterations = int64(50 * rng.Intn(3))
		j.Attained = time.Duration(rng.Intn(3)) * time.Hour
		jobs[i] = j
	}
	return jobs
}

func sameUnits(a, b []Unit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].GPUs != b[i].GPUs || a[i].Mode != b[i].Mode ||
			!reflect.DeepEqual(ids(a[i:i+1]), ids(b[i:i+1])) {
			return false
		}
	}
	return true
}

func TestOrderingMatchesReference(t *testing.T) {
	const now, capacity = 5 * time.Minute, 16
	gittins := NewGittins()
	for _, d := range []time.Duration{10 * time.Minute, time.Hour, time.Hour, 2 * time.Hour, 24 * time.Hour} {
		gittins.Observe(d)
	}
	history := gittins.snapshotHistory()
	keyed := func(p Policy) func([]*job.Job) []Unit {
		key := p.(*priorityPolicy).key
		return func(jobs []*job.Job) []Unit {
			return refExclusive(refOrder(jobs, func(j *job.Job) float64 { return key(now, j) }, false))
		}
	}
	policies := []struct {
		p   Policy
		ref func([]*job.Job) []Unit
	}{
		{FIFO(), keyed(FIFO())},
		{SRTF(), keyed(SRTF())},
		{SRSF(), keyed(SRSF())},
		{Tiresias(), keyed(Tiresias())},
		{Themis(), keyed(Themis())},
		{gittins, func(jobs []*job.Job) []Unit {
			return refExclusive(refOrder(jobs, func(j *job.Job) float64 {
				return gittinsIndex(history, gittins.quanta(), j.Attained.Seconds()*float64(j.GPUs))
			}, true))
		}},
		{AntMan{ShareDegree: 2}, func(jobs []*job.Job) []Unit { return refAntMan(2, jobs) }},
		{DRF{}, func(jobs []*job.Job) []Unit {
			return refExclusive(refOrder(jobs, refDRFKey(capacity), false))
		}},
		{Tetris{}, func(jobs []*job.Job) []Unit {
			return refExclusive(refOrder(jobs, refTetrisScore(jobs), true))
		}},
	}
	rng := rand.New(rand.NewSource(13))
	for q := 0; q < 200; q++ {
		jobs := tiedQueue(rng)
		muris := []*Muri{NewMuriS(), NewMuriL()}
		// Three consecutive rounds on the same instances, with progress in
		// between: from the second round on the stateful policies rank from
		// the order they remember.
		for round := 0; round < 3; round++ {
			for _, c := range policies {
				got, want := c.p.Plan(now, jobs, capacity), c.ref(jobs)
				if !sameUnits(got, want) {
					t.Fatalf("queue %d round %d, %s: units\n got %v\nwant %v", q, round, c.p.Name(), ids(got), ids(want))
				}
			}
			// Muri's grouping sits behind the same ordering step; the order it
			// feeds Algorithm 1 (and backfills from) is what must not move.
			for _, m := range muris {
				got := m.orderJobs(jobs)
				want := refOrder(jobs, func(j *job.Job) float64 { return m.PriorityKey(now, j) }, false)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("queue %d round %d, %s: orderJobs diverges from the reference sort", q, round, m.Name())
				}
			}
			for _, j := range jobs {
				if rng.Intn(3) == 0 {
					j.DoneIterations = min(j.Iterations, j.DoneIterations+int64(50*rng.Intn(3)))
					j.Attained += time.Duration(rng.Intn(3)) * time.Hour
				}
			}
		}
	}
}

func TestExclusiveUnitsDoNotAlias(t *testing.T) {
	jobs := tiedQueue(rand.New(rand.NewSource(7)))
	units := SRTF().Plan(0, jobs, 64)
	want := ids(units)
	intruder := mk(9999, "gpt2", 1, 1, 0)
	for i := range units {
		units[i].Jobs = append(units[i].Jobs, intruder)
	}
	for i, u := range units {
		if len(u.Jobs) != 2 || u.Jobs[0].ID != want[i][0] || u.Jobs[1] != intruder {
			t.Fatalf("unit %d = %v after appending to every unit, want [%d 9999]", i, ids(units[i:i+1]), want[i][0])
		}
	}
}

// TestEntryCmpNonFiniteKeys pins the order on keys where float comparison
// is treacherous: NaN ranks after every number (and ties with NaN), the
// infinities sit at the ends, and −0 ties with +0 — and the comparator is
// a strict weak order, so every input permutation sorts to one result.
func TestEntryCmpNonFiniteKeys(t *testing.T) {
	nan := math.NaN()
	keys := map[job.ID]float64{
		1: nan, 2: 1, 3: math.Inf(1), 4: math.Copysign(0, -1), 5: 0, 6: math.Inf(-1), 7: nan,
	}
	// Job 5 submits before job 4, so the −0/+0 tie resolves by Submit;
	// the two NaN jobs tie on key and Submit and resolve by ID.
	submit := map[job.ID]time.Duration{5: 0, 4: time.Second}
	want := []job.ID{6, 5, 4, 2, 3, 1, 7}

	var jobs []*job.Job
	for id := range keys {
		j := mk(int(id), "gpt2", 1, 1, submit[id])
		jobs = append(jobs, j)
	}
	key := func(j *job.Job) float64 { return keys[j.ID] }
	cases := []struct {
		a, b job.ID
		want int
	}{
		{1, 2, 1}, {2, 1, -1}, {1, 3, 1}, {3, 1, -1}, {1, 6, 1},
		{1, 7, -1}, {7, 1, 1}, {1, 1, 0},
		{4, 5, 1}, {5, 4, -1}, {6, 3, -1}, {3, 2, 1},
	}
	byID := map[job.ID]*job.Job{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	entry := func(id job.ID) muriEntry { return muriEntry{j: byID[id], key: keys[id]} }
	for _, c := range cases {
		if got := entryCmp(entry(c.a), entry(c.b)); got != c.want {
			t.Errorf("entryCmp(job %d key %v, job %d key %v) = %d, want %d",
				c.a, keys[c.a], c.b, keys[c.b], got, c.want)
		}
	}
	// Strict weak order: antisymmetric and transitive over every triple.
	for a := range keys {
		for b := range keys {
			ab := entryCmp(entry(a), entry(b))
			if ab != -entryCmp(entry(b), entry(a)) {
				t.Errorf("entryCmp(%d,%d) is not antisymmetric", a, b)
			}
			for c := range keys {
				if ab < 0 && entryCmp(entry(b), entry(c)) < 0 && entryCmp(entry(a), entry(c)) >= 0 {
					t.Errorf("entryCmp is not transitive over jobs %d,%d,%d", a, b, c)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
		var got []job.ID
		for _, j := range sortJobs(jobs, key) {
			got = append(got, j.ID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: order %v, want %v", trial, got, want)
		}
	}
}
