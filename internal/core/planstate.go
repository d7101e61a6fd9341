package core

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"muri/internal/metrics"
)

// cachedProp is one matching proposal: node indices within the node list
// it was matched over, the edge weight, the gate's gain, and whether the
// central acceptance loop took it.
type cachedProp struct {
	u, v     int32
	weight   float64
	gain     float64
	accepted bool
}

// PlanState carries grouping state across scheduling rounds: the planner's
// counters and a memo of matchShard. A shard's matching is a pure function
// of the contents of the nodes it matches — their sorted class tuples,
// member counts and remaining-iteration aggregates, all that bucketGraph
// reads — so the memo keys by exactly that and a hit is bit-identical to
// fresh edge construction and Blossom matching (see DESIGN.md §10).
// Nothing depends on acceptance history: a shard whose nodes are unchanged
// hits, however the rest of its bucket moved.
//
// The memo keeps two generations, this plan's entries and the previous
// plan's; a hit on the previous one is copied forward, so an unchanged
// shard is served plan after plan. A PlanState must be owned by a single
// policy instance: the memo assumes a constant Config, and class IDs are
// those of its Cache. Lookups and stores take one mutex, because shard
// tasks run in parallel on multicore hosts.
type PlanState struct {
	mu        sync.Mutex
	seed      maphash.Seed
	cur, prev memoGen

	shards    int
	rounds    atomic.Uint64
	replays   atomic.Uint64
	fixpoints atomic.Uint64
	fresh     atomic.Uint64
	tasks     atomic.Uint64
	// pairHits/pairMiss count the grouping graph's class-pair table:
	// reads served by an already-filled cell, and cells filled.
	pairHits atomic.Uint64
	pairMiss atomic.Uint64
}

// memoGen is one plan's generation of the memo: entries indexed by key
// hash, their keys and pairs kept in two slabs, so a generation reused
// after beginPlan allocates only when it outgrows the last one. Of two keys
// with one hash the later wins the index; the full-key check on every hit
// keeps a collision a miss.
type memoGen struct {
	index map[uint64]memoEntry
	keys  []byte
	pairs []cachedProp
}

// memoEntry locates one memoized matching in its generation's slabs.
type memoEntry struct {
	keyOff, keyEnd, pairOff, pairEnd int32
}

// NewPlanState returns a PlanState with an empty memo.
func NewPlanState() *PlanState {
	return &PlanState{seed: maphash.MakeSeed()}
}

// Stats snapshots the plan-state counters. Safe on a nil receiver.
func (ps *PlanState) Stats() metrics.ShardStats {
	if ps == nil {
		return metrics.ShardStats{}
	}
	return metrics.ShardStats{
		Shards:         ps.shards,
		PlanRounds:     ps.rounds.Load(),
		ReplaySweeps:   ps.replays.Load(),
		FixpointSweeps: ps.fixpoints.Load(),
		FreshSweeps:    ps.fresh.Load(),
		ShardTasks:     ps.tasks.Load(),
		PairHits:       ps.pairHits.Load(),
		PairMisses:     ps.pairMiss.Load(),
	}
}

// beginPlan starts a plan's generation: the previous plan's entries stay
// readable, the older generation is dropped and its slabs reused.
func (ps *PlanState) beginPlan(c Config) {
	ps.rounds.Add(1)
	ps.shards = c.shardCount()
	ps.prev, ps.cur = ps.cur, ps.prev
	ps.cur.reset()
}

// memoKey writes the content key of nodes over key: for each node in
// order its sorted class tuple, member count and remaining-iteration
// aggregates. Class IDs are never reused and a rewritten profile interns
// to a new class, so equal keys denote equal inputs for the Cache's
// lifetime.
func (c Config) memoKey(nodes []*node, key []byte) []byte {
	key = key[:0]
	for _, nd := range nodes {
		c.classes(nd)
		c.nodeRemStats(nd)
		for _, k := range nd.key {
			key = binary.LittleEndian.AppendUint32(key, k)
		}
		key = append(key, byte(len(nd.jobs)))
		key = binary.LittleEndian.AppendUint64(key, uint64(nd.remSum))
		key = binary.LittleEndian.AppendUint64(key, uint64(nd.remMax))
	}
	return key
}

// lookup appends the memoized pairs for key to buf and reports whether
// there were any, counting the call: a hit on this plan's generation is a
// fixpoint sweep, a hit on the previous plan's a replay sweep (copied
// forward so the next plan still finds it), and a miss a fresh one.
func (ps *PlanState) lookup(key []byte, buf []cachedProp) ([]cachedProp, bool) {
	h := maphash.Bytes(ps.seed, key)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if pairs, ok := ps.cur.find(h, key); ok {
		ps.fixpoints.Add(1)
		return append(buf, pairs...), true
	}
	if pairs, ok := ps.prev.find(h, key); ok {
		ps.replays.Add(1)
		ps.cur.add(h, key, pairs)
		return append(buf, pairs...), true
	}
	ps.fresh.Add(1)
	return buf, false
}

// store memoizes a fresh matching of the nodes with the given key.
func (ps *PlanState) store(key []byte, pairs []cachedProp) {
	h := maphash.Bytes(ps.seed, key)
	ps.mu.Lock()
	ps.cur.add(h, key, pairs)
	ps.mu.Unlock()
}

func (g *memoGen) find(h uint64, key []byte) ([]cachedProp, bool) {
	e, ok := g.index[h]
	if !ok || !bytes.Equal(g.keys[e.keyOff:e.keyEnd], key) {
		return nil, false
	}
	return g.pairs[e.pairOff:e.pairEnd], true
}

func (g *memoGen) add(h uint64, key []byte, pairs []cachedProp) {
	if g.index == nil {
		g.index = make(map[uint64]memoEntry)
	}
	g.index[h] = memoEntry{
		keyOff: int32(len(g.keys)), keyEnd: int32(len(g.keys) + len(key)),
		pairOff: int32(len(g.pairs)), pairEnd: int32(len(g.pairs) + len(pairs)),
	}
	g.keys = append(g.keys, key...)
	g.pairs = append(g.pairs, pairs...)
}

func (g *memoGen) reset() {
	clear(g.index)
	g.keys, g.pairs = g.keys[:0], g.pairs[:0]
}
