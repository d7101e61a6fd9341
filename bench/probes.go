package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"muri/internal/blossom"
	"muri/internal/ingest"
	"muri/internal/interleave"
	"muri/internal/proto"
	"muri/internal/telemetry"
	"muri/internal/trace"
	"muri/internal/wal"
	"muri/internal/workload"
)

// Layer probes: each times calls into one layer's public functions on
// inputs taken from the workload, outside any replay, so the number
// belongs to that layer alone.

// probeGrouping times the interleave and blossom layers on the pairs
// the trace's first jobs give: PlanGroup per pair (uncached evaluation),
// EffCache.GroupStats on the same pairs warm, and Matcher.Reset+Solve
// on the complete efficiency graphs of 256 and 1,024 nodes.
func probeGrouping(r *run, tracer *telemetry.Tracer, pid, tid int, origin time.Time, tr trace.Trace, smoke bool) {
	nPairs, nSmall, nLarge := 512, 256, 1024
	if smoke {
		nPairs, nSmall, nLarge = 32, 16, 48
	}
	profiles := make([]workload.StageTimes, nLarge)
	for i := range profiles {
		m, err := workload.ByName(tr.Specs[i%min(nPairs, len(tr.Specs))].Model)
		if err != nil {
			r.problem("probe: %v", err)
			return
		}
		profiles[i] = m.Stages
	}
	span := func(name string, start time.Time, args map[string]any) {
		tracer.Span(pid, tid, name, "probe", start.Sub(origin), time.Since(start), args)
	}
	cfg := interleave.DefaultConfig
	pair := make([]workload.StageTimes, 2)

	pairs := 0
	t0 := time.Now()
	for i := 0; i < nPairs; i++ {
		for j := i + 1; j < nPairs; j++ {
			pair[0], pair[1] = profiles[i], profiles[j]
			cfg.PlanGroup(pair, false)
			pairs++
		}
	}
	r.set("interleave.pair_eval_ns", float64(time.Since(t0).Nanoseconds())/float64(pairs))
	span("interleave.PlanGroup", t0, map[string]any{"pairs": pairs})

	cache := interleave.NewEffCache(0)
	edges := make([]blossom.Edge, 0, nLarge*(nLarge-1)/2)
	for i := 0; i < nLarge; i++ {
		for j := i + 1; j < nLarge; j++ {
			pair[0], pair[1] = profiles[i], profiles[j]
			_, eff := cache.GroupStats(cfg, pair)
			edges = append(edges, blossom.Edge{I: i, J: j, Weight: eff})
		}
	}
	t0 = time.Now()
	for i := 0; i < nPairs; i++ {
		for j := i + 1; j < nPairs; j++ {
			pair[0], pair[1] = profiles[i], profiles[j]
			cache.GroupStats(cfg, pair)
		}
	}
	r.set("interleave.cached_eval_ns", float64(time.Since(t0).Nanoseconds())/float64(pairs))
	span("interleave.EffCache.GroupStats", t0, map[string]any{"pairs": pairs})

	var small []blossom.Edge
	for _, e := range edges {
		if e.J < nSmall {
			small = append(small, e)
		}
	}
	var m blossom.Matcher
	t0 = time.Now()
	m.Reset(nSmall, small)
	m.Solve(false)
	r.set("blossom.match_ms_n256", ms(time.Since(t0)))
	span("blossom.Matcher n256", t0, map[string]any{"nodes": nSmall, "edges": len(small)})
	t0 = time.Now()
	m.Reset(nLarge, edges)
	m.Solve(false)
	r.set("blossom.match_ms_n1024", ms(time.Since(t0)))
	span("blossom.Matcher n1024", t0, map[string]any{"nodes": nLarge, "edges": len(edges)})
}

// probeFrontDoor times the proto codec on a Submit frame through a
// buffer and the ingest admitter's Offer and Drain, on the run's specs.
func probeFrontDoor(r *run, specs []proto.JobSpec, smoke bool) {
	n := 20000
	if smoke {
		n = 500
	}
	var buf bytes.Buffer
	codec := proto.NewCodec(&buf)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		msg := &proto.Message{Type: proto.TypeSubmit,
			Submit: &proto.Submit{Job: specs[i%len(specs)], Seq: uint64(i + 1)}}
		if err := codec.Write(msg); err != nil {
			r.problem("probe: codec write: %v", err)
			return
		}
	}
	r.set("proto.codec_write_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := codec.Read(); err != nil {
			r.problem("probe: codec read: %v", err)
			return
		}
	}
	r.set("proto.codec_read_ns", float64(time.Since(t0).Nanoseconds())/float64(n))

	adm := ingest.New(ingest.Config{Capacity: n})
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := adm.Offer(specs[i%len(specs)]); err != nil {
			r.problem("probe: offer: %v", err)
			return
		}
	}
	r.set("ingest.offer_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	// Drain in batches of 64, about what the loaded daemon admits per round.
	t0 = time.Now()
	drained := 0
	for {
		items := adm.Drain(64)
		if len(items) == 0 {
			break
		}
		drained += len(items)
	}
	r.set("ingest.drain_ns_per_item", float64(time.Since(t0).Nanoseconds())/float64(max(drained, 1)))
}

// probeWALAppend times wal.Append on decision-shaped records with the
// daemon's default fsync batch, in a scratch directory.
func probeWALAppend(r *run, dir string, smoke bool) {
	n := 50000
	if smoke {
		n = 500
	}
	dir = filepath.Join(dir, "wal-probe")
	defer os.RemoveAll(dir)
	w, err := wal.Open(dir, wal.Options{SyncEvery: 64})
	if err != nil {
		r.problem("probe: wal open: %v", err)
		return
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec := &wal.Record{Kind: wal.KindDecision, V: int64(i), W: t0.UnixNano(),
			Decision: &wal.DecisionRecord{Seq: uint64(i + 1), Action: "launch",
				Key: fmt.Sprintf("interleaved:%d,%d", i, i+1), Jobs: []int64{int64(i), int64(i + 1)}}}
		if _, err := w.Append(rec); err != nil {
			r.problem("probe: wal append: %v", err)
			break
		}
	}
	r.set("wal.append_ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	if err := w.Close(); err != nil {
		r.problem("probe: wal close: %v", err)
	}
}
