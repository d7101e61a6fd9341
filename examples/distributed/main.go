// Distributed: the full scheduler⇄executor prototype in one process —
// the architecture of the paper's Figure 3 over real TCP on loopback.
// A Muri scheduler daemon starts, two executor "machines" register, a
// client submits twelve jobs with mixed bottlenecks, the scheduler
// profiles first-seen models with dry runs, groups jobs with the
// Blossom-based algorithm, and the executors run the groups stage slot
// by stage slot. Virtual time is compressed 2000×
// so the whole run takes a few seconds.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"muri"
	"muri/internal/executor"
)

func main() {
	srv := muri.NewServer(muri.ServerConfig{
		Policy:      muri.MuriL(),
		Interval:    50 * time.Millisecond,
		TimeScale:   0.0005, // 1 virtual second = 0.5 ms wall
		ReportEvery: 25 * time.Millisecond,
		Logf:        func(string, ...any) {}, // quiet
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv.Serve(ln) }()
	addr := ln.Addr().String()
	fmt.Printf("scheduler listening on %s\n", addr)

	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		agent := &executor.Agent{
			MachineID: fmt.Sprintf("machine-%d", i),
			GPUs:      8,
			Logf:      func(string, ...any) {},
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = agent.Run(ctx, addr) }()
	}

	client, err := muri.DialScheduler(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	models := []string{"shufflenet", "a2c", "gpt2", "vgg16"}
	fmt.Println("submitting 12 jobs (3 of each bottleneck class):")
	for i := 0; i < 12; i++ {
		model := models[i%4]
		id, err := client.Submit(model, 1, 80)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  job %2d: %s\n", id, model)
	}

	start := time.Now()
	st, err := client.WaitAllDone(60*time.Second, 50*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nall %d jobs finished in %v wall time\n", st.Done, time.Since(start).Round(time.Millisecond))
	fmt.Println("virtual job completion times:")
	for _, j := range st.Jobs {
		fmt.Printf("  job %2d %-10s JCT=%v\n", j.ID, j.Model, j.JCT.Round(time.Second))
	}

	cancel()
	srv.Close()
	wg.Wait()
}
