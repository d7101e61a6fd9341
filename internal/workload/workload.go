// Package workload defines the resource taxonomy and the model zoo used
// throughout the Muri reproduction.
//
// A deep-learning training job has a staged, iterative computation pattern:
// every iteration reads a batch from storage, preprocesses it on the CPU,
// runs forward/backward propagation on the GPU, and synchronizes gradients
// over the network. Each stage predominantly uses one resource type, which
// is what makes inter-job interleaving possible (paper §2.2).
package workload

import (
	"fmt"
	"slices"
	"time"
)

// Resource identifies one of the k resource types a training stage occupies.
// The numeric order is the canonical stage order within one iteration.
type Resource int

const (
	// Storage is storage IO: reading training samples into workers.
	Storage Resource = iota
	// CPU is host compute: preprocessing and (for RL) simulation.
	CPU
	// GPU is accelerator compute: forward and backward propagation.
	GPU
	// Network is network IO: gradient synchronization between workers.
	Network

	// NumResources is k, the number of resource types (paper uses k=4).
	NumResources = 4
)

// String returns the conventional short name of the resource.
func (r Resource) String() string {
	switch r {
	case Storage:
		return "storage"
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	case Network:
		return "network"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// StageName returns the name of the training stage that occupies r.
func (r Resource) StageName() string {
	switch r {
	case Storage:
		return "load data"
	case CPU:
		return "preprocess"
	case GPU:
		return "propagate"
	case Network:
		return "synchronize"
	default:
		return fmt.Sprintf("stage(%d)", int(r))
	}
}

// StageTimes holds the duration of each stage of one training iteration,
// indexed by Resource. It is the unit of currency of the whole scheduler:
// the profiler produces it, the interleaving model consumes it.
type StageTimes [NumResources]time.Duration

// Total returns the serial duration of one iteration, i.e. the sum of all
// stage times. Jobs that run alone (no interleaving partner) complete one
// iteration per Total.
func (s StageTimes) Total() time.Duration {
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum
}

// Bottleneck returns the resource with the largest stage time. Ties break
// toward the earliest stage in canonical order.
func (s StageTimes) Bottleneck() Resource {
	best := Resource(0)
	for r := Resource(1); r < NumResources; r++ {
		if s[r] > s[best] {
			best = r
		}
	}
	return best
}

// Fractions returns each stage's share of the serial iteration time.
// This reproduces the Table 1 "duration percentage" view of a profile.
func (s StageTimes) Fractions() [NumResources]float64 {
	var f [NumResources]float64
	total := s.Total()
	if total == 0 {
		return f
	}
	for r, d := range s {
		f[r] = float64(d) / float64(total)
	}
	return f
}

// Scale returns a copy of s with every stage multiplied by factor.
// Scheduling code uses it to apply contention inflation and profiling noise.
func (s StageTimes) Scale(factor float64) StageTimes {
	var out StageTimes
	for r, d := range s {
		out[r] = time.Duration(float64(d) * factor)
	}
	return out
}

// Model is a named DL model with its per-iteration resource profile.
// The zoo mirrors Table 3 of the paper.
type Model struct {
	// Name is the model identifier, e.g. "shufflenet".
	Name string
	// Family is the broad task type: "cv", "nlp", or "rl".
	Family string
	// Dataset names the training dataset or RL environment.
	Dataset string
	// BatchSize is the per-GPU batch size used when profiling.
	BatchSize int
	// Stages is the measured per-iteration stage-duration profile.
	Stages StageTimes
}

// Bottleneck returns the model's dominant resource type.
func (m Model) Bottleneck() Resource { return m.Stages.Bottleneck() }

// Zoo returns the eight evaluation models of Table 3 with stage profiles
// calibrated so that (a) each model's bottleneck matches the table and
// (b) the duration percentages of the four exemplars match Table 1 closely.
//
// Absolute durations are in the tens-to-hundreds of milliseconds per
// iteration, consistent with V100-class measurements. They are not just
// a scale: under Eq. 3 every member of a group advances one iteration
// per group cycle T, so member i's normalized throughput is
// t_i.Total()/T, and the serial totals set how a group splits its
// throughput (Table 2).
func Zoo() []Model { return slices.Clone(zoo) }

// zoo is the table ByName and ByBottleneck read; Zoo hands out copies
// because callers mutate what it returns.
var zoo = func() []Model {
	ms := time.Millisecond
	return []Model{
		// Table 1: ShuffleNet — load 60%, preprocess 18%, propagate 6%,
		// synchronize 2% (remainder is idle/overlap; we renormalize onto
		// the four stages keeping the same ratios).
		{Name: "shufflenet", Family: "cv", Dataset: "imagenet", BatchSize: 128,
			Stages: StageTimes{60 * ms, 18 * ms, 6 * ms, 2 * ms}},
		// ResNet18 is storage-bound like ShuffleNet but with heavier GPU use.
		{Name: "resnet18", Family: "cv", Dataset: "imagenet", BatchSize: 128,
			Stages: StageTimes{55 * ms, 15 * ms, 25 * ms, 10 * ms}},
		// Table 1: VGG19 — load 24%, preprocess 4%, propagate 26%,
		// synchronize 41%: network-bound.
		{Name: "vgg19", Family: "cv", Dataset: "imagenet", BatchSize: 16,
			Stages: StageTimes{24 * ms, 4 * ms, 26 * ms, 41 * ms}},
		// VGG16 is slightly lighter than VGG19, same bottleneck.
		{Name: "vgg16", Family: "cv", Dataset: "imagenet", BatchSize: 16,
			Stages: StageTimes{22 * ms, 4 * ms, 24 * ms, 38 * ms}},
		// BERT: GPU-bound with substantial synchronization.
		{Name: "bert", Family: "nlp", Dataset: "wikitext", BatchSize: 4,
			Stages: StageTimes{1 * ms, 2 * ms, 80 * ms, 30 * ms}},
		// Table 1: GPT-2 — load 0.06%, preprocess 0.03%, propagate 85%,
		// synchronize 28% (sums >100% in the paper due to overlap; we use
		// the same ratio structure on a serial basis).
		{Name: "gpt2", Family: "nlp", Dataset: "wikitext", BatchSize: 4,
			Stages: StageTimes{100 * time.Microsecond, 50 * time.Microsecond, 85 * ms, 28 * ms}},
		// Table 1: A2C — preprocess (simulation) 91%, propagate 3%,
		// synchronize 0.2%: CPU-bound.
		{Name: "a2c", Family: "rl", Dataset: "breakout", BatchSize: 64,
			Stages: StageTimes{0, 91 * ms, 3 * ms, 200 * time.Microsecond}},
		// DQN: CPU-bound (replay + environment stepping) with more GPU work.
		{Name: "dqn", Family: "rl", Dataset: "breakout", BatchSize: 128,
			Stages: StageTimes{2 * ms, 70 * ms, 12 * ms, 1 * ms}},
	}
}()

// ByName returns the zoo model with the given name.
func ByName(name string) (Model, error) {
	for _, m := range zoo {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("workload: unknown model %q", name)
}

// ByBottleneck returns the zoo models whose dominant resource is r.
func ByBottleneck(r Resource) []Model {
	var out []Model
	for _, m := range zoo {
		if m.Bottleneck() == r {
			out = append(out, m)
		}
	}
	return out
}
