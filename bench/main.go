// Command bench is the repository's benchmark: five workloads that
// isolate the layers of the scheduling stack, measured end to end with
// tracing off and layer by layer in a second, traced pass. BENCHMARK.json
// at the repository root declares the workloads and every metric; this
// program emits exactly those names. See README.md.
//
//	go run ./bench                           one set: every workload, both passes
//	go run ./bench -smoke                    the same at a fraction of the size
//	go run ./bench -compare a.json b.json    two sets against the bounds
//	go run ./bench --workload sim-exact --seed 3 --seconds 10 --trace 0
//
// The last form is what the benchmark driver calls: one workload, one
// pass selection, and the result as one JSON object on the last line.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print the driver's JSON line")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "seconds each workload measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 adds the traced pass and reports the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "run every workload at a fraction of its size (harness check, numbers are meaningless)")
		cmp      = flag.Bool("compare", false, "compare two result files given as arguments")
		out      = flag.String("o", "", "result file of a set (default bench/out/result-seed<seed>.json)")
	)
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace == 1, *smoke, *cmp, *out, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// The box this is sized for has two cores. The daemon workloads use
// both: server, executors and load generator are concurrent by nature.
// The sim workloads run on one P: with two, the planner's worker pools
// and the concurrent GC (a replay allocates through ~130 GC cycles a
// second on a 7 MB heap) depend on a second vCPU the hypervisor takes
// away for tens of seconds at a time — replays were 40% slower and
// their run-to-run spread 15% instead of under 10%.
const (
	simProcs    = 1
	daemonProcs = 2
)

func realMain(workload string, seed int64, seconds float64, traced, smoke, cmp bool, out string, args []string) error {
	cat, err := loadCatalogue()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(cat.RunSeconds)
	}
	switch {
	case cmp:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		a, err := readResult(args[0])
		if err != nil {
			return err
		}
		b, err := readResult(args[1])
		if err != nil {
			return err
		}
		if a.Fingerprint != b.Fingerprint {
			fmt.Printf("note: fingerprints differ\n  a: %+v\n  b: %+v\n", a.Fingerprint, b.Fingerprint)
		}
		if worse := compare(os.Stdout, cat, a, b); worse > 0 {
			return fmt.Errorf("%d metrics worse", worse)
		}
		return nil
	case workload != "":
		r, err := runWorkload(cat, workload, seed, seconds, traced, smoke)
		if err != nil {
			return err
		}
		printRun(os.Stdout, cat, r)
		line, err := driverLine(cat, r, traced)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	rf, err := runSet(cat, seed, seconds, smoke)
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(cat.outDir(), fmt.Sprintf("result-seed%d.json", seed))
	}
	if err := writeJSON(out, rf); err != nil {
		return err
	}
	fmt.Println("result file:", out)
	for _, w := range cat.Workloads {
		if !rf.Workloads[w.Name].Correct {
			return fmt.Errorf("workload %s produced wrong outputs", w.Name)
		}
	}
	return nil
}

// runWorkload runs one workload: the e2e pass always, the traced pass
// and its probes when traced.
func runWorkload(cat *catalogue, name string, seed int64, seconds float64, traced, smoke bool) (*run, error) {
	if !cat.hasWorkload(name) {
		return nil, fmt.Errorf("workload %q is not in BENCHMARK.json", name)
	}
	if w, ok := findSim(name); ok {
		runtime.GOMAXPROCS(simProcs)
		return runSim(cat, w, seed, seconds, traced, smoke)
	}
	if w, ok := findDaemon(name); ok {
		runtime.GOMAXPROCS(daemonProcs)
		return runDaemon(cat, w, seed, seconds, traced, smoke)
	}
	return nil, fmt.Errorf("workload %q has no implementation", name)
}

// runSet runs every workload with both passes and prints as it goes.
func runSet(cat *catalogue, seed int64, seconds float64, smoke bool) (*resultFile, error) {
	rf := &resultFile{Fingerprint: newFingerprint(cat.root, seed, seconds, smoke), Workloads: make(map[string]*run)}
	fmt.Printf("fingerprint: %+v\n", rf.Fingerprint)
	for _, w := range cat.Workloads {
		r, err := runWorkload(cat, w.Name, seed, seconds, true, smoke)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		printRun(os.Stdout, cat, r)
		rf.Workloads[w.Name] = r
	}
	return rf, nil
}
