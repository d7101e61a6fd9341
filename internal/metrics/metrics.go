// Package metrics computes the evaluation metrics of the paper (§6.1):
// average JCT, makespan, tail (99th-percentile) JCT, queue length,
// blocking index, and per-resource utilization time series.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"muri/internal/job"
	"muri/internal/workload"
)

// Summary aggregates the end-of-run metrics over a set of completed jobs.
type Summary struct {
	// Jobs is the number of completed jobs summarized.
	Jobs int
	// AvgJCT is the mean job completion time.
	AvgJCT time.Duration
	// Makespan is the latest finish time minus the earliest submit time.
	Makespan time.Duration
	// P99JCT is the 99th-percentile job completion time.
	P99JCT time.Duration
	// MedianJCT is the 50th-percentile job completion time.
	MedianJCT time.Duration
}

// Summarize computes the summary over jobs, all of which must be Done.
func Summarize(jobs []*job.Job) Summary {
	if len(jobs) == 0 {
		return Summary{}
	}
	jcts := make([]time.Duration, 0, len(jobs))
	// Mean accumulates quotient and remainder separately: a plain
	// time.Duration sum overflows int64 nanoseconds around 50k jobs of
	// multi-hundred-hour JCTs (2⁶³ ns ≈ 292 years total).
	n := time.Duration(len(jobs))
	var avg, rem time.Duration
	minSubmit := jobs[0].Submit
	var maxFinish time.Duration
	for _, j := range jobs {
		if j.State != job.Done {
			panic(fmt.Sprintf("metrics: job %d not done", j.ID))
		}
		jct := j.JCT()
		jcts = append(jcts, jct)
		avg += jct / n
		rem += jct % n
		if j.Submit < minSubmit {
			minSubmit = j.Submit
		}
		if j.FinishedAt > maxFinish {
			maxFinish = j.FinishedAt
		}
	}
	sort.Slice(jcts, func(i, k int) bool { return jcts[i] < jcts[k] })
	return Summary{
		Jobs:      len(jobs),
		AvgJCT:    avg + rem/n,
		Makespan:  maxFinish - minSubmit,
		P99JCT:    Percentile(jcts, 0.99),
		MedianJCT: Percentile(jcts, 0.50),
	}
}

// Percentile returns the p-quantile (0 < p ≤ 1) of sorted durations using
// the nearest-rank method. It panics on an empty slice or invalid p.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		panic("metrics: percentile of empty slice")
	}
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("metrics: invalid percentile %v", p))
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Sample is one point of the detailed time series of Figure 8.
type Sample struct {
	// Time is the virtual timestamp of the sample.
	Time time.Duration
	// QueueLen is the number of pending jobs.
	QueueLen int
	// BlockingIndex is the mean ratio of pending time to remaining time
	// over pending jobs (§6.1: "showing the ability to avoid job
	// starvation").
	BlockingIndex float64
	// Util is the fraction of each resource type in use, averaged over
	// allocated GPUs' share of the cluster: Util[GPU] is GPU utilization,
	// Util[Storage] is storage-IO utilization, and so on.
	Util [workload.NumResources]float64
	// RunningJobs counts jobs currently holding resources.
	RunningJobs int
	// UsedGPUs counts allocated GPUs.
	UsedGPUs int
}

// Series is an ordered sequence of samples.
type Series []Sample

// Mean returns the average of f over the series.
func (s Series) Mean(f func(Sample) float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s {
		sum += f(x)
	}
	return sum / float64(len(s))
}

// MeanUtil returns the average utilization of resource r over the series.
func (s Series) MeanUtil(r workload.Resource) float64 {
	return s.Mean(func(x Sample) float64 { return x.Util[r] })
}

// MeanQueueLen returns the average queue length over the series.
func (s Series) MeanQueueLen() float64 {
	return s.Mean(func(x Sample) float64 { return float64(x.QueueLen) })
}

// MeanBlockingIndex returns the average blocking index over the series.
func (s Series) MeanBlockingIndex() float64 {
	return s.Mean(func(x Sample) float64 { return x.BlockingIndex })
}

// BlockingIndex computes the instantaneous blocking index at time now over
// the pending jobs: mean over pending jobs of pendingTime / remainingTime.
// Jobs with zero estimated remaining time contribute their pending time in
// hours, bounding the ratio without dividing by zero.
func BlockingIndex(pending []*job.Job, now time.Duration) float64 {
	if len(pending) == 0 {
		return 0
	}
	sum := 0.0
	for _, j := range pending {
		wait := now - j.Submit
		if wait < 0 {
			wait = 0
		}
		rem := j.RemainingTime()
		if rem <= 0 {
			sum += wait.Hours()
			continue
		}
		sum += float64(wait) / float64(rem)
	}
	return sum / float64(len(pending))
}

// Speedup returns baseline/x as a ratio of durations; it is how the paper
// reports "normalized JCT" (baseline normalized to Muri = 1).
func Speedup(baseline, x time.Duration) float64 {
	if x == 0 {
		return 0
	}
	return float64(baseline) / float64(x)
}

// CacheStats is a point-in-time snapshot of a memo cache's counters (the
// scheduling path's pair-efficiency cache reports through this type; see
// DESIGN.md "Performance architecture").
type CacheStats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64
	// Misses counts lookups that had to compute the value fresh.
	Misses uint64
	// Evictions counts entries discarded to honor the size bound.
	Evictions uint64
	// Entries is the number of entries currently resident.
	Entries int
}

// Lookups returns the total number of cache queries.
func (s CacheStats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate returns Hits/Lookups, or 0 when the cache was never queried.
func (s CacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// MatcherPoolStats counts traffic through the reusable Blossom-matcher
// pool (blossom.MatchPooledInto): how often the scheduling path matched, and
// how often it could reuse recycled solver state instead of allocating.
type MatcherPoolStats struct {
	// Gets counts pooled matching calls.
	Gets uint64
	// News counts calls that had to construct a fresh matcher (pool miss).
	News uint64
}

// FaultStats aggregates failure-model activity over a run: the
// simulator fills it from its fault plan (sim.Result.Faults), and the
// scheduler daemon maintains the live-path equivalent, exported through
// the status API. Both count Crashes, Transient, Requeues and
// DeadLettered only by folding fault records (wal.FaultRecord.Count).
type FaultStats struct {
	// Crashes counts machine crash events applied.
	Crashes int
	// Repairs counts machine repair (or executor re-registration) events.
	Repairs int
	// Transient counts transient job faults injected.
	Transient int
	// Requeues counts job requeues caused by crashes or transient faults.
	Requeues int
	// DeadLettered counts jobs that exhausted their retry budget (live
	// path only; the simulator retries from checkpoint indefinitely).
	DeadLettered int
	// WorkLost is the partial-iteration progress discarded by faults
	// (jobs restart from their last whole-iteration checkpoint).
	WorkLost time.Duration
}

// EngineStats counts the shared scheduling engine's activity (see
// DESIGN.md §8): both the simulator and the daemon drive the same
// decision core, and both surface these counters (sim.Result.Engine,
// the daemon's status API).
type EngineStats struct {
	// Rounds counts Reconcile invocations (scheduling rounds).
	Rounds int
	// Decisions counts decisions issued across the run (launches, kills,
	// requeues, deadletters).
	Decisions int
	// Launches counts units launched under a new key.
	Launches int
	// Preemptions counts units killed to reclaim capacity.
	Preemptions int
	// Requeues counts jobs pushed back to the queue (faults, lost
	// machines).
	Requeues int
	// DeadLettered counts jobs parked after exhausting their retry
	// budget.
	DeadLettered int
	// QueueDepth is the number of candidates left unplaced after the
	// most recent round (a gauge, not a counter).
	QueueDepth int
	// Reprofiles counts estimator re-seeds: completions whose measured
	// stage times deviated from the belief beyond the engine's
	// re-profiling threshold. Zero without an estimator.
	Reprofiles int
}

// HeapStats counts the scans of the simulator's event-driven clock, each
// a pass over the running units for the earliest completion (DESIGN.md
// §6). The names predate the scan; bench/ reads them.
type HeapStats struct {
	// Size is the running-set size at the last scan.
	Size int
	// Peak is the largest running set scanned over the run.
	Peak int
	// Rebuilds counts scans.
	Rebuilds uint64
	// Fixes is always zero.
	Fixes uint64
}

// ShardStats summarizes sharded grouping and the planner memo (see
// DESIGN.md §10): how many shard matchings the memo served from the
// previous plan or from earlier in the same plan versus matched fresh, how
// many per-shard matching tasks ran, and how much of the pair loop the
// class-pair table absorbed.
type ShardStats struct {
	// Shards is the configured shard count (1 = unsharded).
	Shards int
	// PlanRounds counts grouping invocations observed by the plan state.
	PlanRounds uint64
	// ReplaySweeps counts shard matchings (matchShard calls) the planner
	// memo served from the previous plan's entries.
	ReplaySweeps uint64
	// FixpointSweeps counts shard matchings the memo served from entries
	// made earlier in the same plan.
	FixpointSweeps uint64
	// FreshSweeps counts shard matchings that missed the memo and ran edge
	// construction and Blossom matching.
	FreshSweeps uint64
	// ShardTasks counts per-shard matching tasks (a sweep of a sharded
	// bucket contributes its shard count).
	ShardTasks uint64
	// PairHits and PairMisses count the grouping graph's class-pair
	// statistics table: pair reads served by an already-filled cell, and
	// cells filled (one group-statistics lookup each).
	PairHits, PairMisses uint64
}

// ReuseRatio is the fraction of shard matchings the memo served.
func (s ShardStats) ReuseRatio() float64 {
	total := s.ReplaySweeps + s.FixpointSweeps + s.FreshSweeps
	if total == 0 {
		return 0
	}
	return float64(s.ReplaySweeps+s.FixpointSweeps) / float64(total)
}
