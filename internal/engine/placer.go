package engine

import "muri/internal/sched"

// Placer abstracts where units physically land. The simulator's placer
// allocates GPU slots on the modeled cluster (best-fit single machine,
// whole machines for multi-machine units); the daemon's placer best-fits
// units onto registered executors and sends the Launch RPC. The engine
// only ever asks three questions: how much is free, can this unit be
// placed now, and (preemptive replace-all rounds only) release
// everything so the round can re-place from scratch.
type Placer interface {
	// Free returns the currently unallocated GPU capacity.
	Free() int
	// Place tries to place u, whose Jobs is the unit's own copy: the
	// placer may keep u. The returned handle is opaque to the engine
	// and is passed back to the driver on the unit's Placement (the
	// simulator's *unit holding the allocation, the daemon's group ID).
	// ok=false means the unit does not fit right now (fragmentation,
	// send failure) and is skipped this round.
	Place(key string, u sched.Unit) (handle any, ok bool)
	// Reset releases every allocation. Called only at the start of a
	// preemptive ReplaceAll round, before the admission sweep reads Free.
	Reset()
}

// Current describes one unit that is running as a round begins. The
// engine keys it by UnitKey(Spec); Handle is the driver's own identifier
// for the unit and is passed back verbatim on kills.
type Current struct {
	// Spec is the unit's composition as the driver currently sees it.
	Spec sched.Unit
	// Handle identifies the unit to the driver (simulator *unit, daemon
	// group ID).
	Handle any
	// key is UnitKey(Spec), stamped by Reconcile as the round begins so
	// the copies in Outcome.Kept and Outcome.Killed carry it.
	key string
}
