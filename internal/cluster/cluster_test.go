package cluster

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNewCounts(t *testing.T) {
	c := New(8, 8)
	if c.TotalGPUs() != 64 {
		t.Errorf("TotalGPUs = %d, want 64", c.TotalGPUs())
	}
	if c.FreeGPUs() != 64 || c.UsedGPUs() != 0 {
		t.Errorf("fresh cluster free=%d used=%d, want 64/0", c.FreeGPUs(), c.UsedGPUs())
	}
	if len(c.Machines()) != 8 {
		t.Errorf("machines = %d, want 8", len(c.Machines()))
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, args := range [][2]int{{0, 8}, {8, 0}, {-1, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", args[0], args[1])
				}
			}()
			New(args[0], args[1])
		}()
	}
}

func TestSingleMachineBestFit(t *testing.T) {
	c := New(2, 8)
	// Fill machine 0 partially so it has 4 free; machine 1 has 8 free.
	a0, ok := c.Allocate(4)
	if !ok {
		t.Fatal("first allocation failed")
	}
	if len(a0.Machines()) != 1 {
		t.Fatalf("allocation spans %d machines, want 1", len(a0.Machines()))
	}
	// A 4-GPU request should best-fit onto the half-full machine.
	a1, ok := c.Allocate(4)
	if !ok {
		t.Fatal("second allocation failed")
	}
	m0 := a0.Machines()[0]
	if a1.Machines()[0] != m0 {
		t.Errorf("best fit chose machine %d, want %d (partially used)", a1.Machines()[0], m0)
	}
	if c.FreeGPUs() != 8 {
		t.Errorf("free = %d, want 8", c.FreeGPUs())
	}
}

func TestMultiMachineNeedsFullyFree(t *testing.T) {
	c := New(3, 8)
	if _, ok := c.Allocate(1); !ok { // dirty one machine
		t.Fatal("allocate 1 failed")
	}
	// 16 GPUs need two fully free machines; two remain.
	a, ok := c.Allocate(16)
	if !ok {
		t.Fatal("allocate 16 failed with two free machines")
	}
	if len(a.Machines()) != 2 {
		t.Errorf("16-GPU allocation spans %d machines, want 2", len(a.Machines()))
	}
	// Another 16 GPUs cannot fit: no two fully free machines remain.
	if _, ok := c.Allocate(16); ok {
		t.Error("allocate 16 succeeded without two fully free machines")
	}
}

func TestAllocateInsufficientCapacity(t *testing.T) {
	c := New(1, 8)
	if _, ok := c.Allocate(9); ok {
		t.Error("allocated more than total capacity")
	}
	if c.FreeGPUs() != 8 {
		t.Errorf("failed allocation changed state: free = %d", c.FreeGPUs())
	}
}

func TestAllocateZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Allocate(0) should panic")
		}
	}()
	New(1, 8).Allocate(0)
}

func TestReleaseRestores(t *testing.T) {
	c := New(2, 8)
	a, _ := c.Allocate(8)
	b, _ := c.Allocate(8)
	c.Release(a)
	if c.FreeGPUs() != 8 {
		t.Errorf("free = %d after one release, want 8", c.FreeGPUs())
	}
	c.Release(b)
	if c.FreeGPUs() != 16 || c.UsedGPUs() != 0 {
		t.Errorf("free=%d used=%d after all releases, want 16/0", c.FreeGPUs(), c.UsedGPUs())
	}
}

func TestOverReleasePanics(t *testing.T) {
	c := New(1, 8)
	a, _ := c.Allocate(2)
	c.Release(a)
	defer func() {
		if recover() == nil {
			t.Error("double release should panic")
		}
	}()
	c.Release(a)
}

func TestReset(t *testing.T) {
	c := New(4, 8)
	c.Allocate(8)
	c.Allocate(3)
	c.Reset()
	if c.FreeGPUs() != 32 || c.UsedGPUs() != 0 {
		t.Errorf("after Reset free=%d used=%d, want 32/0", c.FreeGPUs(), c.UsedGPUs())
	}
}

func TestRandomizedInvariant(t *testing.T) {
	// Allocate and release randomly; free+used must always equal total and
	// per-machine free must stay within [0, GPUs].
	rng := rand.New(rand.NewSource(11))
	c := New(8, 8)
	var live []Alloc
	for step := 0; step < 2000; step++ {
		if rng.Intn(2) == 0 && len(live) > 0 {
			i := rng.Intn(len(live))
			c.Release(live[i])
			live = append(live[:i], live[i+1:]...)
		} else {
			gpus := 1 << rng.Intn(6) // 1..32
			if a, ok := c.Allocate(gpus); ok {
				live = append(live, a)
			}
		}
		if c.FreeGPUs()+c.UsedGPUs() != c.TotalGPUs() {
			t.Fatalf("step %d: free %d + used %d != total %d",
				step, c.FreeGPUs(), c.UsedGPUs(), c.TotalGPUs())
		}
		for _, m := range c.Machines() {
			if m.Free() < 0 || m.Free() > m.GPUs {
				t.Fatalf("step %d: machine %d free %d out of range", step, m.ID, m.Free())
			}
		}
	}
}

func TestFragmentationAvoidance(t *testing.T) {
	// Descending allocation order should leave room for an 8-GPU job:
	// allocate 8, then four 1-GPU jobs; the singles must pile onto as few
	// machines as possible, keeping a machine fully free.
	c := New(3, 8)
	if _, ok := c.Allocate(8); !ok {
		t.Fatal("allocate 8 failed")
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.Allocate(1); !ok {
			t.Fatalf("allocate 1 (%d) failed", i)
		}
	}
	// One machine holds the 8-GPU job, one holds the singles, one is free.
	if _, ok := c.Allocate(8); !ok {
		t.Error("fragmentation: no room left for a second 8-GPU job")
	}
}

func TestDownMachinesExcludedFromPlacement(t *testing.T) {
	c := New(3, 4)
	c.SetDown(0)
	if c.TotalGPUs() != 12 {
		t.Errorf("TotalGPUs = %d, want 12 (nominal capacity includes down machines)", c.TotalGPUs())
	}
	if c.AvailableGPUs() != 8 || c.FreeGPUs() != 8 {
		t.Errorf("available = %d free = %d, want 8/8", c.AvailableGPUs(), c.FreeGPUs())
	}
	// Single-machine placement must skip the down machine.
	for i := 0; i < 2; i++ {
		a, ok := c.Allocate(4)
		if !ok {
			t.Fatalf("allocate 4 (%d) failed with two machines up", i)
		}
		if a.On(0) != 0 {
			t.Fatalf("allocation landed on down machine: %v", a.Machines())
		}
	}
	if _, ok := c.Allocate(1); ok {
		t.Error("allocation succeeded with every in-service GPU taken")
	}
	// Multi-machine placement must not count the down machine as fully free.
	c.Reset()
	if _, ok := c.Allocate(12); ok {
		t.Error("12-GPU allocation succeeded with only 8 GPUs in service")
	}
	if a, ok := c.Allocate(8); !ok || a.On(0) != 0 {
		t.Errorf("8-GPU allocation = %v ok=%v, want machines 1+2", a.Machines(), ok)
	}
	// Reset preserves availability; SetUp restores it.
	c.Reset()
	if c.AvailableGPUs() != 8 {
		t.Errorf("reset cleared the down flag: available = %d", c.AvailableGPUs())
	}
	c.SetUp(0)
	if c.AvailableGPUs() != 12 || c.FreeGPUs() != 12 {
		t.Errorf("after repair available = %d free = %d, want 12/12", c.AvailableGPUs(), c.FreeGPUs())
	}
	if _, ok := c.Allocate(12); !ok {
		t.Error("12-GPU allocation failed after repair")
	}
}

func TestSetDownIsIdempotentAndChecksDrain(t *testing.T) {
	c := New(2, 4)
	c.SetDown(1)
	c.SetDown(1) // idempotent
	if c.AvailableGPUs() != 4 {
		t.Errorf("double SetDown counted twice: available = %d", c.AvailableGPUs())
	}
	c.SetUp(1)
	c.SetUp(1)
	if c.AvailableGPUs() != 8 {
		t.Errorf("double SetUp counted twice: available = %d", c.AvailableGPUs())
	}
	if _, ok := c.Allocate(4); !ok {
		t.Fatal("allocate failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetDown on an undrained machine did not panic")
		}
	}()
	c.SetDown(0) // best-fit put the 4-GPU job on machine 0
}

// TestAllocShapesAgree: an allocation on one machine names it inline and
// one that spans machines carries a table; everything a caller can ask of
// either — Machines, per-machine counts, Release, the over-release panic —
// answers the same way.
func TestAllocShapesAgree(t *testing.T) {
	for _, gpus := range []int{1, 3, 4, 7, 8, 12} { // 4 per machine: three of these span
		c := New(4, 4)
		if _, ok := c.Allocate(2); !ok { // machine 0 is part-used
			t.Fatal("allocate 2 failed")
		}
		before := make([]int, 4)
		for i, m := range c.Machines() {
			before[i] = m.Free()
		}
		a, ok := c.Allocate(gpus)
		if !ok {
			t.Fatalf("allocate %d failed", gpus)
		}
		if a.GPUs != gpus {
			t.Errorf("%d GPUs: Alloc.GPUs = %d", gpus, a.GPUs)
		}
		var hosts []int
		sum := 0
		for i, m := range c.Machines() {
			took := before[i] - m.Free()
			if got := a.On(i); got != took {
				t.Errorf("%d GPUs: On(%d) = %d, machine lost %d", gpus, i, got, took)
			}
			if took > 0 {
				hosts = append(hosts, i)
			}
			sum += took
		}
		if got := a.Machines(); !slices.Equal(got, hosts) || sum != gpus {
			t.Errorf("%d GPUs: Machines() = %v, GPUs left machines %v (%d in all)", gpus, got, hosts, sum)
		}
		if want := (gpus + 3) / 4; len(hosts) != want {
			t.Errorf("%d GPUs span %d machines, want %d", gpus, len(hosts), want)
		}
		if a.On(-1) != 0 || a.On(99) != 0 {
			t.Errorf("%d GPUs: On reports GPUs on machines that do not exist", gpus)
		}
		c.Release(a)
		for i, m := range c.Machines() {
			if m.Free() != before[i] {
				t.Errorf("%d GPUs: release left machine %d with %d free, want %d", gpus, i, m.Free(), before[i])
			}
		}
		if c.UsedGPUs() != 2 {
			t.Errorf("%d GPUs: used = %d after release, want 2", gpus, c.UsedGPUs())
		}
		c.Reset() // every machine full again, so a second release must overflow one
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d GPUs: releasing into a full machine should panic", gpus)
				}
			}()
			c.Release(a)
		}()
	}
	var zero Alloc
	if zero.Machines() != nil || zero.On(0) != 0 {
		t.Errorf("zero Alloc holds %v", zero.Machines())
	}
}
