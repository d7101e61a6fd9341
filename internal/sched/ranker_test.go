package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"muri/internal/job"
)

// fullSort is what every ranking must equal: a fresh decoration sorted by
// entryCmp, whatever the ranker remembered.
func fullSort(jobs []*job.Job, key func(*job.Job) float64) []*job.Job {
	entries := make([]muriEntry, len(jobs))
	for i, j := range jobs {
		entries[i] = muriEntry{j: j, key: key(j)}
	}
	slices.SortFunc(entries, entryCmp)
	out := make([]*job.Job, len(entries))
	for i, e := range entries {
		out[i] = e.j
	}
	return out
}

// rankCase is one route through the code under test to an ordering, with
// the key that ordering must follow. Each holds one policy instance for
// the whole life of a queue, so its ranker carries history across rounds.
type rankCase struct {
	name string
	rank func(now time.Duration, jobs []*job.Job) []*job.Job
	key  func(now time.Duration, j *job.Job) float64
	// keep is where BackfillLimit truncates the order (0 = nowhere).
	keep int
}

func viaPolicy(p Policy) rankCase {
	pp := p.(*priorityPolicy)
	return rankCase{name: pp.name, key: pp.key,
		rank: func(now time.Duration, jobs []*job.Job) []*job.Job {
			var out []*job.Job
			for _, u := range p.Plan(now, jobs, 16) {
				out = append(out, u.Jobs...)
			}
			return out
		}}
}

func viaMuri(m *Muri, budget int) rankCase {
	c := rankCase{name: m.Name(), key: m.PriorityKey,
		rank: func(_ time.Duration, jobs []*job.Job) []*job.Job { return m.orderJobs(jobs, budget) }}
	if m.BackfillLimit > 0 {
		c.name += "+backfill-limit"
		c.keep = budget + m.BackfillLimit
	}
	return c
}

// keyRegime drives a table of keys the way one family of policies moves
// its priorities between rounds. front is last round's order.
type keyRegime struct {
	name  string
	draw  func(rng *rand.Rand) float64
	churn func(rng *rand.Rand, table map[job.ID]float64, front []*job.Job)
}

// redraw replaces the given share of the keys.
func redraw(share float64, draw func(*rand.Rand) float64) func(*rand.Rand, map[job.ID]float64, []*job.Job) {
	return func(rng *rand.Rand, table map[job.ID]float64, front []*job.Job) {
		for _, j := range front {
			if rng.Float64() < share {
				table[j.ID] = draw(rng)
			}
		}
	}
}

// served moves the keys of the jobs that would be running — the head of
// last round's order — and of a few others.
func served(move func(rng *rand.Rand, k float64) float64) func(*rand.Rand, map[job.ID]float64, []*job.Job) {
	return func(rng *rand.Rand, table map[job.ID]float64, front []*job.Job) {
		for i, j := range front {
			if i < 8 || rng.Intn(20) == 0 {
				table[j.ID] = move(rng, table[j.ID])
			}
		}
	}
}

func keyRegimes() []keyRegime {
	uniform := func(rng *rand.Rand) float64 { return 100 * rng.Float64() }
	nan := math.NaN()
	odd := func(rng *rand.Rand) float64 {
		return []float64{nan, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, 2, nan}[rng.Intn(8)]
	}
	tied := func(rng *rand.Rand) float64 { return float64(rng.Intn(3)) }
	return []keyRegime{
		{"churn-0", uniform, redraw(0, uniform)},
		{"churn-5", uniform, redraw(0.05, uniform)},
		{"churn-100", uniform, redraw(1, uniform)},
		{"falling", uniform, served(func(rng *rand.Rand, k float64) float64 { return k - 30*rng.Float64() })},
		{"rising", uniform, served(func(rng *rand.Rand, k float64) float64 {
			if rng.Intn(3) == 0 {
				return 2*k + 1 // a power-of-two jump, as quantized estimates make
			}
			return k + 5*rng.Float64()
		})},
		{"non-finite", odd, redraw(0.2, odd)},
		{"ties", tied, redraw(0.1, tied)},
	}
}

// TestRankerMatchesFullSort: whatever the ranker remembers, every round's
// order is the full sort's. Queues live 50 rounds under arrivals,
// departures, progress on the job fields the real policies key on, and a
// key table moved by each regime; inputs arrive reordered and with a job
// passed twice; and every fourth queue is ranked by two instances in
// turn, each overwriting the hints the other left on the jobs.
func TestRankerMatchesFullSort(t *testing.T) {
	regimes := keyRegimes()
	models := []string{"gpt2", "resnet18", "bert"}
	for q := 0; q < 200; q++ {
		rng := rand.New(rand.NewSource(int64(1000 + q)))
		regime := regimes[q%len(regimes)]
		table := map[job.ID]float64{}
		tabled := &priorityPolicy{name: "table/" + regime.name, preemptive: true,
			key: func(_ time.Duration, j *job.Job) float64 { return table[j.ID] }}
		scale := NewMuriLScale(1)
		scale.BackfillLimit = 1 + rng.Intn(20)
		cases := []rankCase{
			viaPolicy(tabled), viaPolicy(SRTF()), viaPolicy(Tiresias()), viaPolicy(Themis()),
			viaMuri(NewMuriS(), 24), viaMuri(NewMuriL(), 24), viaMuri(scale, 3+rng.Intn(30)),
		}
		// One owner per queue keeps its hints; a shared queue has two.
		owners := []rankCase{cases[(q/len(regimes))%len(cases)]}
		if q%4 == 3 {
			owners = append(owners, cases[(q/len(regimes)+1+rng.Intn(len(cases)-1))%len(cases)])
		}

		nextID := 0
		arrive := func(now time.Duration) *job.Job {
			nextID++
			submit := now - time.Duration(rng.Intn(4))*time.Minute // lands mid-queue
			j := mk(nextID, models[rng.Intn(len(models))], 1<<rng.Intn(4), int64(100*(1+rng.Intn(3))), max(submit, 0))
			table[j.ID] = regime.draw(rng)
			return j
		}
		var jobs, front []*job.Job
		now := time.Duration(0)
		for n := 2 + rng.Intn(120); len(jobs) < n; {
			jobs = append(jobs, arrive(now))
		}
		for round := 0; round < 50; round++ {
			now += time.Duration(1+rng.Intn(10)) * time.Minute
			for k := rng.Intn(4); k > 0 && len(jobs) > 1; k-- {
				i := rng.Intn(len(jobs))
				jobs = append(jobs[:i], jobs[i+1:]...)
			}
			for k := rng.Intn(9); k > 0; k-- {
				jobs = append(jobs, arrive(now))
			}
			// Service: remaining time falls and attained service rises for
			// the head of the last order, sometimes by a doubling.
			for i, j := range front {
				if i < 8 || rng.Intn(25) == 0 {
					j.DoneIterations = min(j.Iterations, j.DoneIterations+int64(rng.Intn(40)))
					if j.Attained < 1000*time.Hour {
						j.Attained += time.Duration(rng.Intn(3)) * (j.Attained + time.Minute)
					}
				}
			}
			regime.churn(rng, table, front)
			in := slices.Clone(jobs)
			if rng.Intn(3) == 0 {
				rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
			}
			if rng.Intn(5) == 0 {
				in = append(in, in[rng.Intn(len(in))])
			}
			for _, c := range owners {
				want := fullSort(in, func(j *job.Job) float64 { return c.key(now, j) })
				if c.keep > 0 && c.keep < len(want) {
					want = want[:c.keep]
				}
				got := c.rank(now, in)
				if !slices.Equal(got, want) {
					t.Fatalf("queue %d (%s, %d owners), round %d, %s: order diverges from the full sort\n got %v\nwant %v",
						q, regime.name, len(owners), round, c.name, jobIDs(got), jobIDs(want))
				}
				front = got
			}
		}
	}
}

func jobIDs(jobs []*job.Job) []job.ID {
	out := make([]job.ID, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// TestRankerSteadyStateComparisons bounds what a steady-state round costs
// in comparisons — a count, not a timing: with 2,000 jobs of which at
// most 64 moved and 8 arrived, a round stays within 4n, where sorting
// from scratch takes about n·log₂n ≈ 22,000. Most of what moves is what
// runs — neighbours at the head of the order, moving together, which is
// what a rule that judges an entry by its neighbours alone gets wrong.
func TestRankerSteadyStateComparisons(t *testing.T) {
	const n, moved, arrivals, rounds = 2000, 64, 8, 40
	moves := map[string]func(rng *rand.Rand, k float64) float64{
		"falling": func(rng *rand.Rand, k float64) float64 { return k - 50*rng.Float64() },
		"rising": func(rng *rand.Rand, k float64) float64 {
			if rng.Intn(4) == 0 {
				return 2 * k // a power-of-two jump
			}
			return k + 50*rng.Float64()
		},
	}
	for name, move := range moves {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			table := map[job.ID]float64{}
			key := func(j *job.Job) float64 { return table[j.ID] }
			var jobs []*job.Job
			arrive := func() {
				j := mk(len(table)+1, "gpt2", 1, 100, time.Duration(rng.Intn(600))*time.Second)
				table[j.ID] = 1000 * rng.Float64()
				jobs = append(jobs, j)
			}
			for len(jobs) < n {
				arrive()
			}
			var r ranker
			calls := 0
			counting := func(a, b muriEntry) int { calls++; return entryCmp(a, b) }
			order := r.rankBy(jobs, key, counting, true)
			for round := 1; round <= rounds; round++ {
				for k := 0; k < moved; k++ {
					j := order[rng.Intn(2*moved)]
					if k%4 == 0 {
						j = order[rng.Intn(len(order))]
					}
					table[j.ID] = move(rng, table[j.ID])
				}
				for k := rng.Intn(arrivals + 1); k > 0; k-- {
					jobs = slices.DeleteFunc(jobs, func(j *job.Job) bool { return j == order[0] })
					order = order[1:]
					arrive()
				}
				calls = 0
				order = r.rankBy(jobs, key, counting, true)
				if !slices.Equal(order, fullSort(jobs, key)) {
					t.Fatalf("round %d: order diverges from the full sort", round)
				}
				if calls > 4*len(jobs) {
					t.Fatalf("round %d: %d comparisons over %d jobs, want at most 4n = %d",
						round, calls, len(jobs), 4*len(jobs))
				}
				if round == rounds {
					t.Logf("%s: %d comparisons over %d jobs in the last round (n·log₂n ≈ %.0f)",
						name, calls, len(jobs), float64(len(jobs))*math.Log2(float64(len(jobs))))
				}
			}
		})
	}
}
