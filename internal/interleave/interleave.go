// Package interleave implements the timing model of multi-resource
// interleaving (paper §4): group iteration time under a stage ordering
// (Eq. 1/3), interleaving efficiency γ (Eq. 2/4), ordering enumeration,
// and the contention-overhead model used by the simulator.
//
// A group of p ≤ k jobs shares one set of resources. Job at ordering
// position i starts its iteration at stage offset i: while job 0 uses
// resource 0 (storage), job 1 uses resource 1 (CPU), and so on, with a
// synchronization barrier at the end of every stage slot. One group
// iteration therefore takes
//
//	T = Σ_{j=0..k-1} max_{i=0..p-1} t_i[(i+j) mod k]   (Eq. 3)
//
// and every job in the group completes exactly one iteration per T.
package interleave

import (
	"fmt"
	"math"
	"time"

	"muri/internal/workload"
)

// MaxGroupSize is the largest number of jobs Muri packs into one group:
// one job per resource type (the paper avoids fusing jobs, §4.1).
const MaxGroupSize = workload.NumResources

// IterationTimeK computes Eq. 3 for an arbitrary number of resource types
// k = len(times[i]): the job at index i executes with stage offset i, and
// the group iteration is the sum over stage slots of the slot's longest
// stage. The paper's two-resource examples (Figures 4–5) use k=2; the full
// system uses k=4.
func IterationTimeK(times [][]time.Duration) time.Duration {
	if len(times) == 0 {
		return 0
	}
	k := len(times[0])
	var total time.Duration
	for j := 0; j < k; j++ {
		var slotMax time.Duration
		for i, t := range times {
			if d := t[(i+j)%k]; d > slotMax {
				slotMax = d
			}
		}
		total += slotMax
	}
	return total
}

// EfficiencyK computes Eq. 4 for an arbitrary number of resource types:
// one minus the average, across resource types, of the fraction of
// group-iteration time the resource sits idle. γ is in [0, 1]; 1 means
// every resource is busy for the whole iteration.
func EfficiencyK(times [][]time.Duration) float64 {
	T := IterationTimeK(times)
	if T == 0 {
		return 0
	}
	k := len(times[0])
	idle := 0.0
	for j := 0; j < k; j++ {
		var used time.Duration
		for _, t := range times {
			used += t[j]
		}
		idle += float64(T-used) / float64(T)
	}
	return 1 - idle/float64(k)
}

// toVecs appends the vectors of times to dst: callers pass a stack buffer
// of MaxGroupSize, so groups of legal size cost no allocation.
func toVecs(dst [][]time.Duration, times []workload.StageTimes) [][]time.Duration {
	for i := range times {
		dst = append(dst, times[i][:])
	}
	return dst
}

// IterationTime computes the duration of one group iteration (Eq. 3) for
// jobs taken in the given order with the system's k=4 resource types.
// A single job degenerates to its serial iteration time.
func IterationTime(times []workload.StageTimes) time.Duration {
	var buf [MaxGroupSize][]time.Duration
	return IterationTimeK(toVecs(buf[:0], times))
}

// Efficiency computes the interleaving efficiency γ (Eq. 4) for jobs taken
// in the given order with the system's k=4 resource types.
func Efficiency(times []workload.StageTimes) float64 {
	var buf [MaxGroupSize][]time.Duration
	return EfficiencyK(toVecs(buf[:0], times))
}

// Ordering is a permutation of group-member indices; member Ordering[i]
// executes with stage offset i.
type Ordering []int

// Apply reorders times according to the ordering.
func (o Ordering) Apply(times []workload.StageTimes) []workload.StageTimes {
	out := make([]workload.StageTimes, len(o))
	for pos, idx := range o {
		out[pos] = times[idx]
	}
	return out
}

// permutations calls fn with every permutation of [0, n). fn must not
// retain the slice. Iteration stops early if fn returns false.
func permutations(n int, fn func(perm []int) bool) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return fn(perm)
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			if !rec(i + 1) {
				return false
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
		return true
	}
	rec(0)
}

// BestOrdering enumerates all orderings of the group and returns the one
// with the highest interleaving efficiency, together with its iteration
// time and efficiency. The enumeration is cheap because group size is at
// most the number of resource types (§4.2: "the enumeration can be
// completed quickly").
func BestOrdering(times []workload.StageTimes) (Ordering, time.Duration, float64) {
	return searchOrdering(times, true)
}

// WorstOrdering returns the ordering with the lowest interleaving
// efficiency. It exists to reproduce the "Muri-L w/ worst ordering"
// ablation of Figure 11.
func WorstOrdering(times []workload.StageTimes) (Ordering, time.Duration, float64) {
	return searchOrdering(times, false)
}

func searchOrdering(times []workload.StageTimes, best bool) (Ordering, time.Duration, float64) {
	if len(times) == 0 {
		return nil, 0, 0
	}
	var (
		chosen    Ordering
		chosenT   time.Duration
		chosenEff = math.Inf(-1)
	)
	if !best {
		chosenEff = math.Inf(1)
	}
	scratch := make([]workload.StageTimes, len(times))
	permutations(len(times), func(perm []int) bool {
		for pos, idx := range perm {
			scratch[pos] = times[idx]
		}
		eff := Efficiency(scratch)
		better := eff > chosenEff
		if !best {
			better = eff < chosenEff
		}
		if better {
			chosenEff = eff
			chosenT = IterationTime(scratch)
			chosen = append(chosen[:0], perm...)
		}
		return true
	})
	return chosen, chosenT, chosenEff
}

// Config parameterizes the contention model applied when jobs share
// resources. The paper observes (§6.2) that "one stage mainly occupies one
// resource type, [but] other resource types may still be used in this
// stage. Consequently, the resource contention between different stages
// decreases the processing speed". We model that as a multiplicative
// inflation of every stage time by 1 + Overhead·(p−1) for a group of p
// jobs. Overhead = 0 recovers the ideal model of Figures 1–6.
type Config struct {
	// Overhead is the per-additional-job slowdown factor α. The default
	// used across the reproduction is 0.08. Linear in group size, it does
	// not reproduce the paper's Figure 12 finding that 3-job groups can
	// underperform 2-job groups: at full scale the speedup over AntMan
	// grows strictly with the cap (REPRO.json claims figure12.jct.cap and
	// figure12.3vs2).
	Overhead float64
}

// DefaultConfig is the contention configuration used by the simulator and
// the benchmarks unless an experiment overrides it.
var DefaultConfig = Config{Overhead: 0.08}

// Inflate applies the contention model to a group of p members, returning
// inflated copies of the stage-time vectors.
func (c Config) Inflate(times []workload.StageTimes) []workload.StageTimes {
	p := len(times)
	if p <= 1 || c.Overhead == 0 {
		return times
	}
	factor := 1 + c.Overhead*float64(p-1)
	out := make([]workload.StageTimes, p)
	for i, t := range times {
		out[i] = t.Scale(factor)
	}
	return out
}

// Plan describes how a concrete group of jobs executes: the ordering, the
// resulting group iteration time (contention included), and the efficiency
// the scheduler used to form the group.
type Plan struct {
	// Order is the chosen stage-offset permutation of the group members.
	Order Ordering
	// IterTime is one group iteration's duration with contention applied.
	IterTime time.Duration
	// Efficiency is γ for the chosen ordering (computed on inflated times,
	// so it reflects what actually runs).
	Efficiency float64
}

// PlanGroup builds the execution plan for a group using the best ordering
// (or the worst, for the ablation).
func (c Config) PlanGroup(times []workload.StageTimes, worst bool) Plan {
	if len(times) == 0 {
		return Plan{}
	}
	if len(times) > MaxGroupSize {
		panic(fmt.Sprintf("interleave: group of %d exceeds max %d", len(times), MaxGroupSize))
	}
	order, T, eff := searchOrdering(c.Inflate(times), !worst)
	return Plan{Order: order, IterTime: T, Efficiency: eff}
}

// PairEfficiency is the edge-weight function of the grouping graph: the
// best-ordering interleaving efficiency of the union of two candidate
// member sets (contention included). It is what Algorithm 1 calls
// ComputeInterleavingEfficiency.
func (c Config) PairEfficiency(a, b []workload.StageTimes) float64 {
	combined := make([]workload.StageTimes, 0, len(a)+len(b))
	combined = append(combined, a...)
	combined = append(combined, b...)
	if len(combined) > MaxGroupSize {
		return math.Inf(-1)
	}
	_, _, eff := BestOrdering(c.Inflate(combined))
	return eff
}

// NormalizedThroughput returns, for each group member, its throughput when
// grouped divided by its throughput when run alone — the "Norm. Tput" row
// of Table 2. Alone, a job completes one iteration per serial time; in the
// group, one iteration per group iteration time.
func (c Config) NormalizedThroughput(times []workload.StageTimes) []float64 {
	plan := c.PlanGroup(times, false)
	out := make([]float64, len(times))
	if plan.IterTime == 0 {
		return out
	}
	for i, t := range times {
		out[i] = float64(t.Total()) / float64(plan.IterTime)
	}
	return out
}

// SpeedupOverSerial returns the aggregate normalized throughput of a group
// (the "Total Norm. Tput" of Table 2): the sum of per-member normalized
// throughputs, i.e. how many jobs' worth of work the shared resources
// deliver per unit time compared to exclusive execution.
func (c Config) SpeedupOverSerial(times []workload.StageTimes) float64 {
	sum := 0.0
	for _, v := range c.NormalizedThroughput(times) {
		sum += v
	}
	return sum
}
