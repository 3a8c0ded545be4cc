// Command warr-load generates deterministic multi-user load: N virtual
// users partitioned into shared worlds, each world one application
// environment serving per-user browsers and cookie jars, every
// interleaving an explicit schedule value on the virtual clock. The
// interleaving explorer perturbs schedules (seeded, bounded, deduped)
// to surface contention-only findings — lost updates, stale reads,
// session collisions — that no single-user campaign can reach.
//
// Everything runs on virtual time, so a million users cost CPU, not
// wall-clock, and the findings report is byte-identical for a fixed
// (seed, budget) at any -parallel, with or without -no-share, and
// across -workers distributed execution.
//
// Usage:
//
//	warr-load -list
//	warr-load -workload sites-notes -users 8 -seed 1
//	warr-load -users 1000000 -duration 10m -seed 7
//	warr-load -workload docs-tally -users 64 -parallel 8
//	warr-load -workload mixed -users 96 -workers 4
//	warr-load -workload sites-notes -users 8 -no-share   # sharing ablation
//
// The canonical findings report goes to stdout; progress and fleet
// notes go to stderr. Exit status 3 means the explorer found
// interference bugs.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	warr "github.com/dslab-epfl/warr"
	"github.com/dslab-epfl/warr/internal/distrib"
)

func main() {
	workload := flag.String("workload", "mixed",
		"multi-user workload to run: "+strings.Join(warr.LoadWorkloadNames(), ", "))
	users := flag.Int("users", 8, "virtual user count (worlds of -cohort users each)")
	cohort := flag.Int("cohort", 0, "users per shared world (0 = default)")
	budget := flag.Int("budget", 0, "schedules explored per world shape (0 = default)")
	seed := flag.Int64("seed", 1, "seed for the deterministic interleaving explorer")
	duration := flag.Duration("duration", 0, "virtual-time budget (0 = unbounded; wall-clock is unaffected)")
	parallel := flag.Int("parallel", 0, "worlds absorbed concurrently (0 = serial; findings are identical)")
	noShare := flag.Bool("no-share", false, "ablation: re-execute duplicate world shapes instead of sharing results")
	workers := flag.Int("workers", 0, "distribute schedule shards across this many workers over localhost HTTP (0 = in-process)")
	progress := flag.Bool("progress", false, "print world-absorption progress to stderr")
	metrics := flag.Bool("metrics", false, "dump the engine's /metrics text after the report")
	list := flag.Bool("list", false, "list registered workloads, then exit")
	flag.Parse()

	if *list {
		fmt.Println("registered workloads (runnable with -workload):")
		for _, wl := range warr.LoadWorkloads() {
			fmt.Printf("  %-16s %s\n", wl.Name, wl.Desc)
		}
		return
	}
	if err := run(runOptions{
		workload: *workload, users: *users, cohort: *cohort, budget: *budget,
		seed: *seed, duration: *duration, parallel: *parallel, noShare: *noShare,
		workers: *workers, progress: *progress, metrics: *metrics,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "warr-load:", err)
		os.Exit(1)
	}
}

// runOptions carry the parsed flags into run.
type runOptions struct {
	workload          string
	users             int
	cohort, budget    int
	seed              int64
	duration          time.Duration
	parallel          int
	noShare           bool
	workers           int
	progress, metrics bool
}

// startWorkerPool brings up the distributed fleet: a coordinator pool
// behind a loopback HTTP listener and n workers polling it — the same
// wire protocol warr-worker speaks against warr-serve, collapsed into
// one process. Load shards are self-describing schedule jobs, so the
// schedule is the whole recipe.
func startWorkerPool(n int) (*distrib.Pool, func(), error) {
	pool := distrib.NewPool(distrib.PoolOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("starting coordinator: %w", err)
	}
	hs := &http.Server{Handler: pool.Handler()}
	go func() { _ = hs.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	coordinator := "http://" + ln.Addr().String()
	for i := 0; i < n; i++ {
		w := distrib.NewWorker(distrib.WorkerOptions{
			Coordinator:  coordinator,
			PollInterval: 10 * time.Millisecond,
		})
		go func() { _ = w.Run(ctx) }()
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := pool.WaitForWorkers(wctx, n); err != nil {
		cancel()
		_ = hs.Close()
		return nil, nil, err
	}
	stop := func() {
		cancel()
		_ = hs.Close()
	}
	fmt.Fprintf(os.Stderr, "distributing schedule shards across %d workers via %s\n", n, coordinator)
	return pool, stop, nil
}

func run(o runOptions) error {
	// The campaign runs as a job on the shared engine — the same
	// execution path a warr-serve daemon drives for submitted
	// load-campaign requests.
	engineOpts := warr.JobEngineOptions{Workers: 1, QueueDepth: 2}
	if o.workers > 0 {
		pool, stop, err := startWorkerPool(o.workers)
		if err != nil {
			return err
		}
		defer stop()
		engineOpts.Distributor = pool
	}
	engine := warr.NewJobEngine(engineOpts)
	defer engine.Close()

	job, err := engine.Submit(warr.JobSpec{
		Kind:               warr.JobLoadCampaign,
		Workload:           o.workload,
		Users:              o.users,
		Cohort:             o.cohort,
		ScheduleBudget:     o.budget,
		ScheduleSeed:       o.seed,
		Duration:           o.duration,
		Parallelism:        o.parallel,
		DisableLoadSharing: o.noShare,
	})
	if err != nil {
		return err
	}
	var drained chan struct{}
	if o.progress {
		events, cancel := job.Events().Subscribe(0)
		defer cancel()
		drained = make(chan struct{})
		go func() {
			defer close(drained)
			// The engine closes the bus at job completion, ending the
			// range — so waiting on drained flushes every line.
			for ev := range events {
				if p, ok := ev.(warr.LoadProgressEvent); ok {
					fmt.Fprintf(os.Stderr, "  %s: %d/%d worlds (%d schedules executed, %d shared)\n",
						p.Workload, p.WorldsDone, p.Worlds, p.Executed, p.Shared)
				}
			}
		}()
	}
	_ = job.Wait(nil)
	if drained != nil {
		<-drained
	}
	if err := job.Err(); err != nil {
		return err
	}
	rep := job.LoadReport()
	fmt.Print(rep.Render())
	if o.metrics {
		fmt.Println()
		if err := engine.WriteMetrics(os.Stdout); err != nil {
			return err
		}
	}
	if len(rep.Findings) > 0 {
		os.Exit(3)
	}
	return nil
}
