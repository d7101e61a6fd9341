package sched

import (
	"time"

	"muri/internal/job"
	"muri/internal/profile"
)

// This file holds the estimate-aware policy variants: the same priority
// functions as SRTF/SRSF/Muri-L, but with every duration read routed
// through a profile.Estimator instead of the job's oracle profile. With
// the oracle estimator they order jobs identically to the originals;
// with the online estimator they schedule on learned beliefs, which is
// the prediction-assisted regime the `prediction` experiment sweeps.

// predictedIterTime returns the estimator's believed per-iteration
// duration for j, falling back to the job's scheduler-visible profile
// while the estimator has no belief for the model (cold start). The
// fallback is deterministic: it is exactly what the oracle-era policies
// read.
func predictedIterTime(est profile.Estimator, j *job.Job) time.Duration {
	if e, ok := est.EstimateFor(j); ok && e.Stages.Total() > 0 {
		return e.Stages.Total()
	}
	return j.Profile.Total()
}

// predictedRemaining is the believed remaining serial run time.
func predictedRemaining(est profile.Estimator, j *job.Job) time.Duration {
	return time.Duration(j.RemainingIterations()) * predictedIterTime(est, j)
}

// SRTFPredicted is SRTF ordered by predicted remaining run time.
func SRTFPredicted(est profile.Estimator) Policy {
	return &priorityPolicy{name: "srtf-pred", preemptive: true,
		key: func(_ time.Duration, j *job.Job) float64 {
			return predictedRemaining(est, j).Seconds()
		}}
}

// SRSFPredicted is SRSF ordered by predicted remaining service
// (predicted remaining time × GPUs).
func SRSFPredicted(est profile.Estimator) Policy {
	return &priorityPolicy{name: "srsf-pred", preemptive: true,
		key: func(_ time.Duration, j *job.Job) float64 {
			return predictedRemaining(est, j).Seconds() * float64(j.GPUs)
		}}
}

// NewMuriLPredicted is Muri-L with its remaining-iteration estimate (the
// JCT merge gate's input) computed from the estimator's believed
// iteration time rather than the oracle profile. The 2D-LAS priority
// itself is already oracle-free.
func NewMuriLPredicted(est profile.Estimator) *Muri {
	m := NewMuriL()
	m.Label = "muri-l-pred"
	m.Grouping.RemainingIters = func(j *job.Job) int64 {
		floor := int64(1)
		if it := predictedIterTime(est, j); it > 0 {
			floor = int64(10 * time.Minute / it)
			if floor < 1 {
				floor = 1
			}
		}
		n := j.DoneIterations
		if n < floor {
			n = floor
		}
		return n
	}
	return m
}
