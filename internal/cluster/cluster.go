// Package cluster models the GPU cluster: machines, their GPU inventory,
// and the placement policy. The paper's testbed is 8 machines × 8 V100
// GPUs (§6.1); placement allocates GPUs to jobs in descending order of
// GPU requirement and keeps each job on as few machines as possible to
// avoid fragmentation (§5).
package cluster

import (
	"fmt"
	"sort"
)

// Machine is one server with a fixed number of GPUs.
type Machine struct {
	// ID is the machine index within the cluster.
	ID int
	// GPUs is the machine's total GPU count.
	GPUs int

	free int
	down bool
}

// Free returns the number of currently unallocated GPUs.
func (m *Machine) Free() int { return m.free }

// Down reports whether the machine is out of service (crashed).
func (m *Machine) Down() bool { return m.down }

// Cluster is a set of machines with GPU allocation tracking.
type Cluster struct {
	machines []*Machine
	total    int
	used     int
	// down is the GPU capacity of out-of-service machines.
	down int
}

// New creates a cluster of n machines with gpusPerMachine GPUs each.
func New(n, gpusPerMachine int) *Cluster {
	if n <= 0 || gpusPerMachine <= 0 {
		panic("cluster: machine and GPU counts must be positive")
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		m := &Machine{ID: i, GPUs: gpusPerMachine, free: gpusPerMachine}
		c.machines = append(c.machines, m)
		c.total += gpusPerMachine
	}
	return c
}

// Machines returns the machines in ID order. Callers must not mutate them.
func (c *Cluster) Machines() []*Machine { return c.machines }

// TotalGPUs returns the cluster's nominal GPU capacity, including
// machines currently out of service.
func (c *Cluster) TotalGPUs() int { return c.total }

// AvailableGPUs returns the capacity of in-service machines — what a
// scheduler can actually plan against under degraded conditions. With no
// machine down it equals TotalGPUs.
func (c *Cluster) AvailableGPUs() int { return c.total - c.down }

// FreeGPUs returns the number of unallocated GPUs across in-service
// machines.
func (c *Cluster) FreeGPUs() int { return c.total - c.down - c.used }

// UsedGPUs returns the number of allocated GPUs.
func (c *Cluster) UsedGPUs() int { return c.used }

// Alloc records a placement: how many GPUs were taken from each machine.
// An allocation on one machine — the common case, made every round for
// every running unit — names that machine inline; only one that spans
// machines carries a table. The zero Alloc holds nothing.
type Alloc struct {
	// GPUs is the total size of the allocation.
	GPUs int
	// machine is the host of a single-machine allocation. spread, when
	// non-nil, maps machine ID to the GPUs taken on it instead.
	machine int
	spread  map[int]int
}

// On returns the number of GPUs the allocation holds on machine id.
func (a Alloc) On(id int) int {
	switch {
	case a.spread != nil:
		return a.spread[id]
	case id == a.machine:
		return a.GPUs
	}
	return 0
}

// Machines returns the machine IDs of the allocation in ascending order.
func (a Alloc) Machines() []int {
	if a.spread == nil {
		if a.GPUs == 0 {
			return nil
		}
		return []int{a.machine}
	}
	ids := make([]int, 0, len(a.spread))
	for id := range a.spread {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Allocate reserves gpus GPUs. Placement minimizes the number of machines
// used: a job that fits on one machine goes to the machine with the least
// sufficient free capacity (best fit); larger jobs take whole machines.
// It returns false without side effects when capacity is insufficient.
func (c *Cluster) Allocate(gpus int) (Alloc, bool) {
	if gpus <= 0 {
		panic(fmt.Sprintf("cluster: allocate %d GPUs", gpus))
	}
	if gpus > c.FreeGPUs() {
		return Alloc{}, false
	}
	per := c.machines[0].GPUs
	if gpus <= per {
		// Best fit: the machine with the smallest free count that still
		// fits, preferring lower IDs on ties for determinism.
		best := -1
		for _, m := range c.machines {
			if !m.down && m.free >= gpus && (best == -1 || m.free < c.machines[best].free) {
				best = m.ID
			}
		}
		if best == -1 {
			return Alloc{}, false
		}
		c.machines[best].free -= gpus
		c.used += gpus
		return Alloc{GPUs: gpus, machine: best}, true
	}
	// Multi-machine job: needs ⌈gpus/per⌉ machines; all but the last must
	// be fully free (distributed workers are balanced across machines).
	need := (gpus + per - 1) / per
	var fullyFree []int
	for _, m := range c.machines {
		if !m.down && m.free == m.GPUs {
			fullyFree = append(fullyFree, m.ID)
		}
	}
	if len(fullyFree) < need {
		return Alloc{}, false
	}
	spread := make(map[int]int, need)
	remaining := gpus
	for _, id := range fullyFree[:need] {
		take := per
		if take > remaining {
			take = remaining
		}
		spread[id] = take
		c.machines[id].free -= take
		remaining -= take
	}
	c.used += gpus
	return Alloc{GPUs: gpus, spread: spread}, true
}

// Release returns an allocation's GPUs to the cluster.
func (c *Cluster) Release(a Alloc) {
	if a.spread == nil {
		c.release(a.machine, a.GPUs)
	} else {
		for id, n := range a.spread {
			c.release(id, n)
		}
	}
	c.used -= a.GPUs
	if c.used < 0 {
		panic("cluster: negative usage after release")
	}
}

// release returns n GPUs to machine id.
func (c *Cluster) release(id, n int) {
	if id < 0 || id >= len(c.machines) {
		panic(fmt.Sprintf("cluster: release on unknown machine %d", id))
	}
	m := c.machines[id]
	if m.free+n > m.GPUs {
		panic(fmt.Sprintf("cluster: over-release on machine %d", id))
	}
	m.free += n
}

// Reset frees every allocation. Schedulers that recompute the whole
// placement each interval use it instead of tracking individual releases.
// Machine availability (SetDown/SetUp) survives a reset: a crashed
// machine stays crashed across scheduling rounds.
func (c *Cluster) Reset() {
	for _, m := range c.machines {
		m.free = m.GPUs
	}
	c.used = 0
}

// SetDown takes a machine out of service. The caller must have drained
// it first (every allocation touching it released); a crash preempts the
// units it hosts before the capacity disappears.
func (c *Cluster) SetDown(id int) {
	if id < 0 || id >= len(c.machines) {
		panic(fmt.Sprintf("cluster: SetDown on unknown machine %d", id))
	}
	m := c.machines[id]
	if m.down {
		return
	}
	if m.free != m.GPUs {
		panic(fmt.Sprintf("cluster: SetDown on machine %d with %d GPUs still allocated", id, m.GPUs-m.free))
	}
	m.down = true
	c.down += m.GPUs
}

// SetUp returns a machine to service after a repair.
func (c *Cluster) SetUp(id int) {
	if id < 0 || id >= len(c.machines) {
		panic(fmt.Sprintf("cluster: SetUp on unknown machine %d", id))
	}
	m := c.machines[id]
	if !m.down {
		return
	}
	m.down = false
	c.down -= m.GPUs
}
