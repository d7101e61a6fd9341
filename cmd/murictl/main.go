// Command murictl is the client for a running Muri scheduler daemon.
//
// Usage:
//
//	murictl -scheduler localhost:7800 submit -model gpt2 -gpus 2 -iters 100000
//	murictl -scheduler localhost:7800 submit -f jobs.jsonl
//	murictl -scheduler localhost:7800 status
//	murictl -scheduler localhost:7800 wait -timeout 10m
//	murictl -scheduler localhost:7800 fault -job 3
//	murictl -scheduler localhost:7800 fault -machine machine-0
//	murictl -scheduler localhost:7800 trace -o trace.json
//	murictl -scheduler localhost:7800 explain -job 3
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"muri/internal/proto"
	"muri/internal/server"
	"muri/internal/trace"
	"muri/internal/workload"
)

func main() {
	scheduler := flag.String("scheduler", "localhost:7800", "scheduler address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "murictl: need a subcommand: submit | replay | status | wait | watch | fault | trace | explain | models | debug")
		os.Exit(2)
	}
	if args[0] == "models" {
		// Offline subcommand: no scheduler needed.
		for _, m := range workload.Zoo() {
			fmt.Printf("%-10s %-4s %-10s batch=%-4d bottleneck=%s\n",
				m.Name, m.Family, m.Dataset, m.BatchSize, m.Bottleneck())
		}
		return
	}
	c, err := server.Dial(*scheduler)
	if err != nil {
		fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	switch args[0] {
	case "submit":
		fs := flag.NewFlagSet("submit", flag.ExitOnError)
		model := fs.String("model", "gpt2", "zoo model name")
		gpus := fs.Int("gpus", 1, "GPU count")
		iters := fs.Int64("iters", 10000, "training iterations")
		tenant := fs.String("tenant", "", "tenant name (rate-limiting key)")
		file := fs.String("f", "", "batch mode: JSONL file of job specs, one per line (- for stdin)")
		window := fs.Int("window", 256, "batch mode: max unacked submissions in flight")
		_ = fs.Parse(args[1:])
		if *file != "" {
			if err := submitBatchFile(c, *file, *window); err != nil {
				fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
				os.Exit(1)
			}
			return
		}
		id, err := c.SubmitSpec(proto.JobSpec{Model: *model, GPUs: *gpus, Iterations: *iters, Tenant: *tenant})
		if err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("submitted job %d (%s, %d GPUs, %d iterations)\n", id, *model, *gpus, *iters)
	case "status":
		st, err := c.Status()
		if err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
			os.Exit(1)
		}
		line := fmt.Sprintf("executors=%d pending=%d running=%d done=%d",
			st.Executors, st.Pending, st.Running, st.Done)
		if st.DeadLetter > 0 {
			line += fmt.Sprintf(" deadletter=%d", st.DeadLetter)
		}
		if st.Faults != nil {
			line += fmt.Sprintf(" crashes=%d transient=%d requeues=%d",
				st.Faults.Crashes, st.Faults.Transient, st.Faults.Requeues)
		}
		fmt.Println(line)
		if d := st.Durability; d != nil {
			dur := fmt.Sprintf("durability: role=%s term=%d wal=%d@%d lsn=%d durable_lsn=%d unsynced=%d snapshot_lsn=%d",
				d.Role, d.Term, d.WALSegment, d.WALOffset, d.WALLSN, d.DurableLSN, d.Unsynced, d.SnapshotLSN)
			if d.SnapshotAge > 0 {
				dur += fmt.Sprintf(" snapshot_age=%v", d.SnapshotAge.Round(time.Second))
			}
			dur += fmt.Sprintf(" fsync_every=%d appends=%d fsyncs=%d sync_stalls=%d", d.FsyncEvery, d.Appends, d.Fsyncs, d.SyncStalls)
			if d.Role == "standby" {
				dur += fmt.Sprintf(" repl_lag=%d", d.ReplLag)
			} else if d.Standbys > 0 {
				dur += fmt.Sprintf(" standbys=%d repl_lag=%d", d.Standbys, d.ReplLag)
			}
			fmt.Println(dur)
		}
		if e := st.Engine; e != nil {
			line := fmt.Sprintf("engine: rounds=%d decisions=%d launches=%d preemptions=%d requeues=%d queue=%d",
				e.Rounds, e.Decisions, e.Launches, e.Preemptions, e.Requeues, e.QueueDepth)
			if e.Reprofiles > 0 {
				line += fmt.Sprintf(" reprofiles=%d", e.Reprofiles)
			}
			fmt.Println(line)
		}
		if p := st.Predictor; p != nil {
			line := fmt.Sprintf("predictor: models=%d samples=%d completions=%d",
				p.Models, p.Samples, p.Completions)
			if p.Reseeds > 0 {
				line += fmt.Sprintf(" reseeds=%d", p.Reseeds)
			}
			if p.ErrSamples > 0 {
				line += fmt.Sprintf(" mean_abs_err=%.3f (%d scored)", p.MeanAbsErr, p.ErrSamples)
			}
			fmt.Println(line)
		}
		if in := st.Ingest; in != nil {
			fmt.Printf("ingest: queued=%d accepted=%d rejected=%d throttled=%d batches=%d\n",
				in.QueueDepth, in.Accepted, in.Rejected, in.Throttled, in.Batches)
		}
		for _, j := range st.Jobs {
			line := fmt.Sprintf("job %d %-10s %-10s %d/%d iterations", j.ID, j.Model, j.State, j.DoneIterations, j.Iterations)
			if j.JCT > 0 {
				line += fmt.Sprintf("  JCT=%v", j.JCT.Round(time.Second))
			}
			if j.Faults > 0 {
				line += fmt.Sprintf("  faults=%d(last on %s)", j.Faults, j.FaultExecutor)
			}
			fmt.Println(line)
		}
	case "fault":
		fs := flag.NewFlagSet("fault", flag.ExitOnError)
		jobID := fs.Int64("job", 0, "fail this running job")
		machine := fs.String("machine", "", "crash this executor machine")
		_ = fs.Parse(args[1:])
		if (*jobID == 0) == (*machine == "") {
			fmt.Fprintln(os.Stderr, "murictl: fault needs exactly one of -job or -machine")
			os.Exit(2)
		}
		if err := c.InjectFault(*jobID, *machine); err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
			os.Exit(1)
		}
		if *jobID != 0 {
			fmt.Printf("injected fault into job %d\n", *jobID)
		} else {
			fmt.Printf("injected crash on machine %s\n", *machine)
		}
	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		out := fs.String("o", "", "write the trace JSON here (default stdout)")
		_ = fs.Parse(args[1:])
		data, err := c.TraceSnapshot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
			os.Exit(1)
		}
		if *out == "" {
			os.Stdout.Write(data)
			return
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes); open in https://ui.perfetto.dev\n", *out, len(data))
	case "explain":
		fs := flag.NewFlagSet("explain", flag.ExitOnError)
		jobID := fs.Int64("job", 0, "explain this job's waits")
		_ = fs.Parse(args[1:])
		if *jobID <= 0 {
			fmt.Fprintln(os.Stderr, "murictl: explain needs -job")
			os.Exit(2)
		}
		text, err := c.Explain(*jobID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(text)
	case "wait":
		fs := flag.NewFlagSet("wait", flag.ExitOnError)
		timeout := fs.Duration("timeout", 10*time.Minute, "how long to wait")
		_ = fs.Parse(args[1:])
		st, err := c.WaitAllDone(*timeout, time.Second)
		if err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("all %d jobs done\n", st.Done)
	case "replay":
		fs := flag.NewFlagSet("replay", flag.ExitOnError)
		path := fs.String("trace", "", "trace CSV (from tracegen)")
		timeScale := fs.Float64("timescale", 0.001, "virtual-to-wall compression for inter-arrival gaps")
		_ = fs.Parse(args[1:])
		if *path == "" {
			fmt.Fprintln(os.Stderr, "murictl: replay needs -trace")
			os.Exit(2)
		}
		f, err := os.Open(*path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
			os.Exit(1)
		}
		tr, err := trace.ReadCSV(*path, f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
			os.Exit(1)
		}
		ids, err := c.Replay(context.Background(), tr, *timeScale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v (submitted %d)\n", err, len(ids))
			os.Exit(1)
		}
		fmt.Printf("replayed %d jobs\n", len(ids))
	case "debug":
		if len(args) < 2 || args[1] != "crash" {
			fmt.Fprintln(os.Stderr, "murictl: debug needs the crash subcommand: murictl debug crash -point mid-round")
			os.Exit(2)
		}
		fs := flag.NewFlagSet("debug crash", flag.ExitOnError)
		point := fs.String("point", "mid-round", "crash point to arm (mid-round|mid-fsync|mid-snapshot)")
		_ = fs.Parse(args[2:])
		if err := c.DebugCrash(*point); err != nil {
			fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("armed crash point %q; the daemon will panic next time it passes it\n", *point)
	case "watch":
		fs := flag.NewFlagSet("watch", flag.ExitOnError)
		every := fs.Duration("every", time.Second, "refresh period")
		_ = fs.Parse(args[1:])
		for {
			st, err := c.Status()
			if err != nil {
				fmt.Fprintf(os.Stderr, "murictl: %v\n", err)
				os.Exit(1)
			}
			line := fmt.Sprintf("executors=%d pending=%d running=%d done=%d",
				st.Executors, st.Pending, st.Running, st.Done)
			if v, ok := st.Extra["avg_jct_s"].(float64); ok {
				line += fmt.Sprintf(" avgJCT=%v", (time.Duration(v * float64(time.Second))).Round(time.Second))
			}
			fmt.Println(line)
			if len(st.Jobs) > 0 && st.Pending == 0 && st.Running == 0 {
				return
			}
			time.Sleep(*every)
		}
	default:
		fmt.Fprintf(os.Stderr, "murictl: unknown subcommand %q\n", args[0])
		os.Exit(2)
	}
}

// submitBatchFile streams every spec in a JSONL file over one pipelined
// connection, printing a per-job accept/reject line. A rejected job
// does not abort the batch; the exit status reflects whether every job
// was accepted.
func submitBatchFile(c *server.Client, path string, window int) error {
	var r *os.File
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	stream := c.SubmitStream(window)
	var accepted, rejected int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range stream.Results() {
			if res.Err != nil {
				rejected++
				fmt.Printf("job #%d rejected: %v\n", res.Seq, res.Err)
				continue
			}
			accepted++
			fmt.Printf("job #%d accepted as id %d (%v)\n", res.Seq, res.ID, res.RTT.Round(time.Microsecond))
		}
	}()

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var sent, badLines int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var spec proto.JobSpec
		if err := json.Unmarshal([]byte(line), &spec); err != nil {
			badLines++
			fmt.Fprintf(os.Stderr, "murictl: skipping malformed line: %v\n", err)
			continue
		}
		if err := stream.Send(spec); err != nil {
			stream.CloseSend()
			<-done
			return fmt.Errorf("submit stream broke after %d sends: %w", sent, err)
		}
		sent++
	}
	stream.CloseSend()
	<-done
	if err := sc.Err(); err != nil {
		return err
	}
	if err := stream.Err(); err != nil {
		return err
	}
	fmt.Printf("batch done: %d accepted, %d rejected, %d malformed lines\n", accepted, rejected, badLines)
	if rejected > 0 || badLines > 0 {
		return fmt.Errorf("%d of %d jobs not accepted", rejected+badLines, sent+badLines)
	}
	return nil
}
