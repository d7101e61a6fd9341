package muri_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// archRule is one architecture rule: no line of a non-test Go file under
// scope may match pattern.
type archRule struct {
	name    string
	pattern string
	// scope lists directories, walked recursively, relative to the repo
	// root; except lists files under them the rule exempts.
	scope, except []string
	// skipComments exempts lines that are wholly a // comment.
	skipComments bool
	reason       string
	// example is an offending line: the pattern must match it.
	example string
}

var archRules = []archRule{
	{
		name:    "reflection-sort",
		pattern: `sort\.Slice(Stable)?\(`,
		scope:   []string{"internal/sched", "internal/engine", "internal/sim", "internal/core", "internal/server"},
		reason: "the scheduling path, the daemon's round included, sorts with the generic slices " +
			"package: the reflection sorts were the hottest frames of a non-grouping round",
		example: `sort.SliceStable(units, func(a, b int) bool { return units[a].Key < units[b].Key })`,
	},
	{
		name:    "id-keyed-round-set",
		pattern: `map\[job\.ID\]bool`,
		scope:   []string{"internal/engine"},
		reason:  "the engine keeps a round's per-job sets as stamps on the jobs (job.Sched), not as ID-keyed maps",
		example: `seen := make(map[job.ID]bool, len(jobs))`,
	},
	{
		name:    "gc-tuning",
		pattern: `(?i)debug\.Set(GCPercent|MemoryLimit)|ballast`,
		scope:   []string{"internal"},
		reason:  "nothing under internal/ tunes the collector: a round's garbage is kept small by not making it",
		example: `debug.SetGCPercent(400)`,
	},
	{
		name:    "engine-state-outside-apply",
		pattern: `eng\.(Track|Complete|ApplyDecision|ReplayFault)\(`,
		scope:   []string{"internal/server"},
		except:  []string{"internal/server/apply.go"},
		reason: "the daemon changes the engine's recoverable state only from internal/server/apply.go, " +
			"where each WAL record kind has the one function live handlers and replay share",
		example: `s.eng.Complete(id, service)`,
	},
	{
		name:    "engine-mutation-outside-apply",
		pattern: `e\.prevKeys\[[^]]*\] *=|delete\(e\.prevKeys|e\.stats\.(Decisions|Launches|Preemptions|Requeues|DeadLettered)\+\+`,
		scope:   []string{"internal/engine"},
		except:  []string{"internal/engine/snapshot.go"},
		reason: "the engine changes its placement memory and decision counters only in internal/engine/snapshot.go: " +
			"apply (one decision, live at emit and replayed alike), Restore, Complete and the shrink re-key",
		example: `e.prevKeys[j.ID] = key`,
	},
	{
		name:    "job-state-outside-apply",
		pattern: `(\bj|\.job)\.(State|Faults)[[:space:]]*(=[^=]|\+\+|\+=|-=|--)`,
		scope:   []string{"internal"},
		except:  []string{"internal/engine/snapshot.go"},
		reason: "a job's lifecycle (job.State, job.Faults) is written only by the engine, in " +
			"internal/engine/snapshot.go: apply, Track, Complete, RecordFault and ReplayFault; " +
			"job.New leaves it pending",
		example: `js.job.State = job.Done`,
	},
	{
		name:         "deleted-lifecycle-copy",
		pattern:      `PhaseOf|FaultsOf|engine\.Phase|RecordSnapshot`,
		scope:        []string{"."},
		skipComments: true,
		reason:       "job.State is the one lifecycle type: the engine keeps no phase map of its own beside it",
		example:      `if s.eng.PhaseOf(id) == engine.PhaseRunning {`,
	},
	{
		name:         "deleted-timeline",
		pattern:      `RecordTimeline|\.Timeline\b|\bsim\.Event\b`,
		scope:        []string{"."},
		skipComments: true,
		reason: "a simulated run has one lifecycle log, the wal.Record stream it writes to sim.Config.Record, " +
			"as the daemon's WAL is its log: no second event type, switch or result field beside it",
		example: `cfg.RecordTimeline = true`,
	},
	{
		name:         "deleted-queue-rebuild",
		pattern:      `PendingInto|sortBySubmit|Outcome\.Pending`,
		scope:        []string{"."},
		skipComments: true,
		reason: "both drivers read a round's candidates from job.State, written only through the engine's " +
			"apply: no second queue that Reconcile rebuilds, sorts or writes into a lent buffer",
		example: `out := eng.Reconcile(engine.Input{Candidates: jobs, PendingInto: spare})`,
	},
	{
		name:         "deleted-pred-policies",
		pattern:      `SRTFPredicted|SRSFPredicted|NewMuriLPredicted|refreshBelief|predictedRemaining`,
		scope:        []string{"."},
		skipComments: true,
		reason: "beliefs reach a policy only through the engine, which rewrites each candidate's Profile " +
			"from Config.Estimator for both drivers: no policy variant or driver reads the estimator beside it",
		example: `p := sched.SRTFPredicted(est)`,
	},
	{
		name: "deleted-engine-contract",
		pattern: `NoteCompletion|engine\.Outcome|engine\.Placer|simPlacer|serverPlacer|LastNow|` +
			`interface\{ *Observe\(time\.Duration\) *\}`,
		scope:        []string{"internal", "cmd", "examples"},
		skipComments: true,
		reason: "the engine asks its drivers only for what they use: a completion is one Engine.Complete, " +
			"which feeds the policy's CompletionObserver and the estimator; placement is Input.Free and " +
			"Input.Place; Reconcile returns the placements; and no round clock rides snapshots",
		example: `if obs, ok := s.policy.(interface{ Observe(time.Duration) }); ok {`,
	},
	{
		name: "per-member-continuation",
		pattern: `\brekey\(|\b(engine\.|type )Member\b|\bMembers +\[\]Member\b|\b(p|pl|placement)\.Members\b|` +
			`\bcarried\b|map\[job\.ID\]attempt\b`,
		scope:        []string{"internal", "cmd", "examples"},
		skipComments: true,
		reason: "a placed unit either continues (its key was running as the round began, and Placement.Prev " +
			"is the unit it continues) or launches: no per-member restart classification, no re-keying of " +
			"a shrunk unit's survivors and no per-round carry map beside the running units (a daemon " +
			"group's wal.GroupRecord.Members is its launch record, not a classification)",
		example: `for i, m := range p.Members {`,
	},
	{
		name:    "belief-read-outside-engine",
		pattern: `\.EstimateFor\(`,
		scope:   []string{"internal/sim", "internal/sched", "internal/server", "cmd"},
		reason: "only the engine reads beliefs (internal/engine: the candidate refresh and the re-profile " +
			"check), so the simulator and the daemon plan on the same ones",
		example: `if e, ok := s.cfg.Estimator.EstimateFor(j); ok {`,
	},
	{
		name: "group-membership-copy",
		pattern: `\b(groupOrder|execOrder)\b|map\[(int64|string)\]\*(groupState|executorConn)|` +
			`\bg\.(jobs|members|key|gpus)\b|groupState\{[^}]*\b(jobs|members|key|gpus):`,
		scope:        []string{"internal/server"},
		skipComments: true,
		reason: "a launched group's placed unit (groupState.spec) is its only membership record, and the " +
			"group and executor tables are one ascending-ID slice each: no map beside a sorted view, " +
			"no second member list",
		example: `s.addGroupLocked(&groupState{id: gid, exec: exec, jobs: ids, spec: u})`,
	},
	{
		name:    "fault-ledger-by-hand",
		pattern: `\.(Crashes|Transient|Requeues|DeadLettered)[[:space:]]*(\+\+|\+=)`,
		scope:   []string{"internal/sim", "internal/server"},
		reason:  "the simulator and the daemon count faults only by folding fault records (wal.FaultRecord.Count)",
		example: `res.Faults.Crashes++`,
	},
	{
		name:    "sim-imports-explain",
		pattern: `"muri/internal/explain"`,
		scope:   []string{"internal/sim"},
		reason:  "the simulator writes its record stream to Config.Record without importing internal/explain",
		example: `	"muri/internal/explain"`,
	},
	{
		name:         "deleted-knobs",
		pattern:      `GateThroughput|GateNone|PlanWithSeeds|CandidateFactor|TraceStageCycles|IngestMaxBatch|\.Sticky\b`,
		scope:        []string{"."},
		skipComments: true,
		reason:       "the scheduling path has one merge gate, one Plan entry point and no sticky seeds",
		example:      `cfg.Grouping.Gate = core.GateThroughput`,
	},
	{
		name:         "deleted-replay",
		pattern:      `bucketSig|copyProps|EnableIncremental|QuantizeEstimates|MarkDirty|DirtyMarks|lastAccepted`,
		scope:        []string{"."},
		skipComments: true,
		reason: "the planner has one memo keyed by node content: no bucket-signature replay, " +
			"no dirty marks, no settable estimate quantization",
		example: `p.EnableIncremental()`,
	},
	{
		name:         "deleted-clock-index",
		pattern:      `completionHeap|noteDirty|markStale|estValid|heapIdx`,
		scope:        []string{"internal/sim"},
		skipComments: true,
		reason: "the event-driven clock scans the running units: no completion index, " +
			"no per-unit estimate memo, no stale or dirty marks",
		example: `s.heap.markStale()`,
	},
}

// violations lists the lines under root that break the rule, as
// "path:line: text".
func (r archRule) violations(root string) ([]string, error) {
	re := regexp.MustCompile(r.pattern)
	var out []string
	for _, dir := range r.scope {
		base := filepath.Join(root, dir)
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != base && strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			if slices.Contains(r.except, rel) {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(data), "\n") {
				if r.skipComments && strings.HasPrefix(strings.TrimLeft(line, " \t"), "//") {
					continue
				}
				if re.MatchString(line) {
					out = append(out, fmt.Sprintf("%s:%d: %s", rel, i+1, strings.TrimSpace(line)))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestArchitectureRules holds the repository to its architecture rules.
// Each rule must also fire on its example planted in a scratch tree, and
// not on the same line in a test file.
func TestArchitectureRules(t *testing.T) {
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			if !regexp.MustCompile(r.pattern).MatchString(r.example) {
				t.Fatalf("pattern %q does not match its example %q", r.pattern, r.example)
			}
			root := t.TempDir()
			for _, dir := range r.scope {
				if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			plant := filepath.Join(root, r.scope[0])
			src := []byte("package planted\n\nfunc f() {\n" + r.example + "\n}\n")
			for _, name := range []string{"planted.go", "planted_test.go"} {
				if err := os.WriteFile(filepath.Join(plant, name), src, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := r.violations(root)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 {
				t.Errorf("planted example: %d hits, want 1: %q", len(got), got)
			}

			bad, err := r.violations(".")
			if err != nil {
				t.Fatal(err)
			}
			if len(bad) > 0 {
				t.Errorf("%s:\n%s", r.reason, strings.Join(bad, "\n"))
			}
		})
	}
}
