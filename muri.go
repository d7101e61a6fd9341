// Package muri is a reproduction of "Multi-Resource Interleaving for Deep
// Learning Training" (SIGCOMM 2022): a multi-resource cluster scheduler
// for DL workloads that interleaves the staged, iterative computation of
// training jobs — storage IO, CPU preprocessing, GPU propagation, network
// synchronization — across jobs in time, grouped by a Blossom-based
// multi-round matching algorithm.
//
// The package is a facade over the internal implementation:
//
//   - Workload modeling: Model, StageTimes, the Table 3 model zoo.
//   - The interleaving calculus of §4 (Eq. 1–4): Efficiency, PlanGroup.
//   - Scheduling policies: Muri-S/Muri-L and the evaluated baselines.
//   - A trace-driven cluster simulator plus the Philly-like trace
//     generator used by the paper's evaluation.
//   - A distributed prototype: scheduler daemon, executor agent, client.
//   - The experiment harness that regenerates every table and figure.
package muri

import (
	"time"

	"muri/internal/core"
	"muri/internal/experiments"
	"muri/internal/interleave"
	"muri/internal/metrics"
	"muri/internal/sched"
	"muri/internal/server"
	"muri/internal/sim"
	"muri/internal/trace"
	"muri/internal/workload"
)

// Resource identifies one of the four resource types a training stage
// occupies; see the constants below.
type Resource = workload.Resource

// The four resource types of a DL training iteration, in canonical stage
// order.
const (
	Storage = workload.Storage
	CPU     = workload.CPU
	GPU     = workload.GPU
	Network = workload.Network
)

// NumResources is k, the number of resource types.
const NumResources = workload.NumResources

// StageTimes is the per-iteration stage-duration vector of a job, indexed
// by Resource.
type StageTimes = workload.StageTimes

// Model is a DL model with its measured resource profile.
type Model = workload.Model

// Models returns the evaluation model zoo (Table 3): ResNet18,
// ShuffleNet, VGG16/19, BERT, GPT-2, A2C and DQN.
func Models() []Model { return workload.Zoo() }

// ModelByName looks a zoo model up by name.
func ModelByName(name string) (Model, error) { return workload.ByName(name) }

// Efficiency computes the interleaving efficiency γ (Eq. 4) of jobs
// executed in the given order with cyclic stage offsets.
func Efficiency(profiles []StageTimes) float64 { return interleave.Efficiency(profiles) }

// GroupIterationTime computes Eq. 3: the duration of one group iteration
// for jobs in the given order.
func GroupIterationTime(profiles []StageTimes) time.Duration {
	return interleave.IterationTime(profiles)
}

// GroupPlan is an interleaving execution plan for one group.
type GroupPlan = interleave.Plan

// PlanGroup finds the best stage ordering for a group of at most
// NumResources jobs and returns its plan (ordering, iteration time,
// efficiency), using the default contention model.
func PlanGroup(profiles []StageTimes) GroupPlan {
	return interleave.DefaultConfig.PlanGroup(profiles, false)
}

// GroupingConfig configures the core grouping algorithm (Algorithm 1).
type GroupingConfig = core.Config

// DefaultGrouping returns the standard Muri grouping configuration.
func DefaultGrouping() GroupingConfig { return core.DefaultConfig() }

// Policy is a cluster scheduling policy.
type Policy = sched.Policy

// MuriScheduler is the paper's scheduler; its exported fields select the
// ablation variants (group-size cap, ordering, Blossom on/off). A
// MuriScheduler instance carries state between rounds (its ranker's last
// order, the buffers its units are built in, and, under muri-l-scale, the
// planner memo) and must not be shared across concurrent simulations.
type MuriScheduler = sched.Muri

// MuriS returns the Muri scheduler with SRSF priorities (known job
// durations).
func MuriS() *MuriScheduler { return sched.NewMuriS() }

// MuriL returns the Muri scheduler with 2D-LAS priorities (unknown job
// durations).
func MuriL() *MuriScheduler { return sched.NewMuriL() }

// Baseline policies evaluated in the paper.
func FIFO() Policy     { return sched.FIFO() }
func SRTF() Policy     { return sched.SRTF() }
func SRSF() Policy     { return sched.SRSF() }
func Tiresias() Policy { return sched.Tiresias() }
func Themis() Policy   { return sched.Themis() }
func AntMan() Policy   { return sched.AntMan{} }

// Gittins returns the Gittins-index variant of Tiresias (an extension:
// the paper evaluates the 2D-LAS configuration).
func Gittins() Policy { return sched.NewGittins() }

// DRF returns job-level Dominant Resource Fairness, and Tetris the
// alignment-score multi-resource packer — the classic space-dimension
// multi-resource schedulers the paper contrasts with (§8). On DL
// workloads both degenerate to SRTF-like behavior (§6.1).
func DRF() Policy    { return sched.DRF{} }
func Tetris() Policy { return sched.Tetris{} }

// ModelParallelConfig controls pipeline-parallel profile splitting (§7).
type ModelParallelConfig = workload.ModelParallelConfig

// ModelParallelWorkers splits a model's profile into per-pipeline-worker
// stage vectors following the paper's §7 sketch; each worker schedules
// like a normal staged job.
func ModelParallelWorkers(m Model, cfg ModelParallelConfig) ([]StageTimes, error) {
	return workload.ModelParallelWorkers(m, cfg)
}

// CDF is an empirical JCT distribution; JCTDistribution builds one from a
// finished simulation.
type CDF = metrics.CDF

// JCTDistribution returns the JCT CDF of a simulation result.
func JCTDistribution(res SimResult) CDF { return metrics.JCTCDF(res.Jobs) }

// Trace is a job trace; TraceSpec is one record.
type (
	Trace     = trace.Trace
	TraceSpec = trace.Spec
	TraceGen  = trace.GenConfig
)

// GenerateTrace produces a deterministic synthetic Philly-like trace.
func GenerateTrace(cfg TraceGen) Trace { return trace.Generate(cfg) }

// PhillyTraces returns the four standard evaluation traces for a cluster
// with the given GPU capacity.
func PhillyTraces(maxGPUs int) []Trace {
	var out []Trace
	for _, cfg := range trace.PhillyConfigs(maxGPUs) {
		out = append(out, trace.Generate(cfg))
	}
	return out
}

// SimConfig configures the trace-driven simulator; SimResult is a run's
// outcome; Summary aggregates the end-of-run metrics.
type (
	SimConfig = sim.Config
	SimResult = sim.Result
	Summary   = metrics.Summary
)

// DefaultSimConfig returns the paper's testbed configuration: 8 machines
// × 8 GPUs, 6-minute scheduling interval.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Simulate replays a trace under the policy and returns metrics.
func Simulate(cfg SimConfig, tr Trace, p Policy) SimResult { return sim.Run(cfg, tr, p) }

// Experiments exposes the table/figure harness; see ExperimentOptions.
type ExperimentOptions = experiments.Options

// FullExperiments returns paper-scale experiment options; and
// QuickExperiments a reduced-scale variant for smoke runs.
func FullExperiments() ExperimentOptions  { return experiments.Full() }
func QuickExperiments() ExperimentOptions { return experiments.Quick() }

// Distributed prototype types: the scheduler daemon, its configuration,
// and the submission client. Executor agents live in cmd/muriexec.
type (
	Server       = server.Server
	ServerConfig = server.Config
	Client       = server.Client
)

// NewServer creates a scheduler daemon.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// DialScheduler connects a client to a running scheduler daemon.
func DialScheduler(addr string) (*Client, error) { return server.Dial(addr) }
