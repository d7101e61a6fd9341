// Package crashpoint is the crash-injection harness behind
// `murictl debug crash` and the durability tests: named points in the
// daemon's write path (mid-round, mid-fsync, mid-snapshot) call Hit, and
// an armed point panics the process there — the closest in-process
// approximation of `kill -9` at exactly that instruction. Points are
// armed over the wire only when murisched runs with -unsafe-debug; the
// package is a no-op otherwise (one atomic load per Hit).
package crashpoint

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Well-known points in the daemon's durability path. Arbitrary names are
// allowed; these are the ones the harness documents and CI exercises.
const (
	// MidRound fires inside a scheduling round, after batched admission
	// was logged but before the engine reconciles.
	MidRound = "mid-round"
	// MidFsync fires inside the WAL writer, after buffered records were
	// written to the file but before fsync — the torn-tail window.
	MidFsync = "mid-fsync"
	// MidSnapshot fires inside the snapshot writer, after the temp file
	// was written but before the atomic rename publishing it.
	MidSnapshot = "mid-snapshot"
)

var (
	mu     sync.Mutex
	armed  map[string]bool
	nArmed atomic.Int32
	// handler replaces the default panic for tests that want to observe a
	// hit without dying. Nil means panic.
	handler func(point string)
)

// Arm schedules a panic at the next Hit of the named point.
func Arm(point string) {
	mu.Lock()
	defer mu.Unlock()
	if armed == nil {
		armed = make(map[string]bool)
	}
	if !armed[point] {
		armed[point] = true
		nArmed.Add(1)
	}
}

// Reset disarms every point and restores the default panic handler
// (tests clean up with it).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed = nil
	nArmed.Store(0)
	handler = nil
}

// SetHandler replaces the process-killing panic with fn for tests. A nil
// fn restores the default.
func SetHandler(fn func(point string)) {
	mu.Lock()
	defer mu.Unlock()
	handler = fn
}

// Hit crashes the process if point is armed; otherwise it is a cheap
// no-op (a single atomic load when nothing is armed anywhere).
func Hit(point string) {
	if nArmed.Load() == 0 {
		return
	}
	mu.Lock()
	hit := armed[point]
	if hit {
		delete(armed, point)
		nArmed.Add(-1)
	}
	fn := handler
	mu.Unlock()
	if !hit {
		return
	}
	if fn != nil {
		fn(point)
		return
	}
	panic(fmt.Sprintf("crashpoint: injected crash at %q", point))
}
