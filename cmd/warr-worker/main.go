// warr-worker is the executing half of a distributed campaign: a
// process that polls a coordinator (warr-serve's /api/distrib
// endpoints, or the loopback coordinator weberr -workers starts) for
// shard leases, restores each lease's branch-point world image into a
// fresh environment, continues the subtree through the standard
// campaign scheduler, and reports outcomes in the shared jobs event
// vocabulary.
//
// Workers are stateless and disposable. One that dies mid-shard simply
// stops heartbeating; the coordinator re-queues its leases and the
// survivors pick them up, with findings identical to a single-process
// run. Start as many as the machine has cores to spare:
//
//	warr-worker -coordinator http://127.0.0.1:8731/api/distrib
//	warr-worker -coordinator http://127.0.0.1:8731/api/distrib -id worker-a
//
// The worker links the same application registry the other CLIs do
// (paper workloads plus the calendar plugin), so any campaign the
// coordinator plans can be executed here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	// Linking the calendar plugin registers its app, matching the
	// worlds weberr and warr-serve build.
	_ "github.com/dslab-epfl/warr/apps/calendar"
	"github.com/dslab-epfl/warr/internal/distrib"
)

func main() {
	coordinator := flag.String("coordinator", "http://127.0.0.1:8731/api/distrib",
		"base URL of the coordinator's distrib endpoints")
	id := flag.String("id", "", "worker identity (default worker-<pid>-<n>)")
	poll := flag.Duration("poll", 100*time.Millisecond, "initial backoff after a failed lease poll")
	flag.Parse()

	w := distrib.NewWorker(distrib.WorkerOptions{
		Coordinator:  *coordinator,
		ID:           *id,
		PollInterval: *poll,
		Logf:         log.Printf,
	})
	log.Printf("warr-worker %s polling %s", w.ID(), *coordinator)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := w.Run(ctx)
	switch {
	case errors.Is(err, distrib.ErrCrashed):
		// A coordinator running with -faults killed us on purpose; die
		// with a distinct status so chaos harnesses can tell an injected
		// crash from a real failure.
		log.Printf("warr-worker %s: %v", w.ID(), err)
		os.Exit(7)
	case err != nil && !errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "warr-worker:", err)
		os.Exit(1)
	}
	log.Printf("warr-worker %s stopped", w.ID())
}
