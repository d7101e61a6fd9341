package sched

import (
	"time"

	"muri/internal/job"
	"muri/internal/workload"
)

// This file implements the classic multi-resource schedulers the paper
// contrasts itself with (§8): Dominant Resource Fairness (Ghodsi et al.,
// NSDI'11) and Tetris-style multi-resource packing (Grandl et al.,
// SIGCOMM'14). Both allocate resources in *space* using each job's peak
// per-resource demand; the paper's observation is that for DL training
// jobs — whose peak GPU demand is ~1 per requested GPU — space sharing
// has nothing to pack, so these schedulers degenerate to SRTF-like
// behavior (§6.1: "existing multi-resource schedulers degenerate to SRTF
// or its variants when scheduling DL training jobs").

// demandVector is a job's peak fractional demand of each resource type,
// per requested GPU slot, derived from its stage profile: a job that
// spends 70% of its iteration on storage has storage demand 0.7.
func demandVector(j *job.Job) [workload.NumResources]float64 {
	return j.Profile.Fractions()
}

// DRF implements job-level Dominant Resource Fairness: jobs are
// repeatedly granted resources in order of their lowest dominant share,
// where a job's dominant share is its largest fractional demand times
// the GPUs it has been granted so far. With every DL job demanding a
// whole GPU, the dominant resource is effectively the GPU and DRF
// reduces to max-min fairness on GPU counts.
type DRF struct{}

// Name implements Policy.
func (DRF) Name() string { return "drf" }

// Preemptive implements Policy.
func (DRF) Preemptive() bool { return true }

// Plan implements Policy: order jobs by the dominant share they would
// hold if granted, smallest first (progressive filling), tie-broken by
// arrival.
func (DRF) Plan(now time.Duration, jobs []*job.Job, capacity int) []Unit {
	return exclusiveUnits(sortJobs(jobs, func(j *job.Job) float64 {
		max := 0.0
		for _, v := range demandVector(j) {
			if v > max {
				max = v
			}
		}
		// Dominant share if granted: gpus × peak fractional demand,
		// normalized by cluster capacity.
		share := float64(j.GPUs) * max
		if capacity > 0 {
			share /= float64(capacity)
		}
		return share
	}))
}

// Tetris implements Tetris-style multi-resource packing: jobs are scored
// by the alignment (dot product) between their peak demand vector and
// the cluster's remaining capacity vector, blended with SRTF to bound
// job completion time — the original paper's "combine packing efficiency
// and average completion time" heuristic. Resources are still allocated
// exclusively in space: with whole-GPU demands there is no sharing to
// exploit, which is exactly the degeneration Muri's paper points out.
type Tetris struct {
	// JCTWeight blends the SRTF term into the packing score (0 = pure
	// packing, 1 = pure SRTF). The Tetris paper recommends an even blend.
	JCTWeight float64
}

// Name implements Policy.
func (Tetris) Name() string { return "tetris" }

// Preemptive implements Policy.
func (Tetris) Preemptive() bool { return true }

// Plan implements Policy.
func (t Tetris) Plan(now time.Duration, jobs []*job.Job, capacity int) []Unit {
	w := t.JCTWeight
	if w <= 0 {
		w = 0.5
	}
	// Remaining capacity vector: the fraction of each resource type still
	// free cluster-wide. At plan time (preemptive reset) everything is
	// free, so alignment reduces to the magnitude of the demand vector —
	// the degenerate case the Muri paper describes.
	var remaining [workload.NumResources]float64
	for r := range remaining {
		remaining[r] = 1
	}
	// Normalize the SRTF term across the candidate set.
	maxRem := time.Duration(1)
	for _, j := range jobs {
		if r := j.RemainingTime(); r > maxRem {
			maxRem = r
		}
	}
	return exclusiveUnits(sortJobs(jobs, func(j *job.Job) float64 {
		d := demandVector(j)
		align := 0.0
		for r := range d {
			align += d[r] * remaining[r]
		}
		srtf := 1 - float64(j.RemainingTime())/float64(maxRem)
		return -((1-w)*align + w*srtf) // higher score first
	}))
}
