// Command muriexec runs a Muri executor agent on one machine: it
// registers its GPU inventory with the scheduler and executes
// interleaving groups stage slot by stage slot, one clock per group:
// each slot lasts as long as its slowest member's stage and ends at a
// deadline counted from the group's launch.
//
// Usage:
//
//	muriexec -scheduler localhost:7800 -machine m0 -gpus 8
//
// -scheduler accepts a comma-separated address list (leader plus warm
// standbys): on disconnect the agent tries each in turn, so it finds a
// newly promoted leader without operator intervention, and running
// groups survive the failover (offered back for adoption on
// re-registration).
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"muri/internal/executor"
)

func main() {
	var (
		scheduler = flag.String("scheduler", "localhost:7800", "scheduler address, or comma-separated leader,standby list")
		machine   = flag.String("machine", "m0", "machine identifier")
		gpus      = flag.Int("gpus", 8, "GPU inventory to advertise")
	)
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*scheduler, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	agent := &executor.Agent{MachineID: *machine, GPUs: *gpus}
	log.Printf("muriexec: machine %s (%d GPUs) connecting to %s", *machine, *gpus, *scheduler)
	// Reconnect with backoff across scheduler restarts and failovers;
	// ^C exits.
	if err := agent.RunHA(ctx, addrs, 30*time.Second); err != nil && ctx.Err() == nil {
		log.Fatalf("muriexec: %v", err)
	}
}
