// Command weberr tests a simulated web application against realistic
// human errors (paper §V, Fig. 5): it records a correct session, infers
// the user-interaction grammar, injects navigation errors (forget,
// reorder, substitute — confined to single grammar rules) and timing
// errors (no wait time), replays the erroneous traces in fresh
// environments, and reports what the oracle found.
//
// The correct trace may be recorded live from a named scenario, loaded
// from a trace file (versioned archive or legacy text, auto-detected)
// with -trace, and persisted as a versioned archive with -save — so a
// trace recorded once can be re-tested later, elsewhere.
//
// Any scenario registered through the public plugin API is testable by
// name — -list shows what this build knows.
//
// Usage:
//
//	weberr -list
//	weberr -scenario edit-site                 # both campaigns
//	weberr -scenario create-event              # a plugin app's workload
//	weberr -scenario edit-site -campaign timing
//	weberr -scenario compose-email -campaign navigation -show-tree
//	weberr -scenario edit-site -save edit.warr # archive the correct trace
//	weberr -trace edit.warr                    # re-test a stored trace
//	weberr -scenario edit-site -workers 4      # distributed campaign
//	weberr -scenario edit-site -fuzz -budget 64 # coverage-guided fuzzing
//
// With -workers N the campaigns run distributed: a coordinator plans
// the trace trie into shards, and N worker processes (in-process here,
// but speaking the same localhost HTTP/JSON protocol warr-worker uses
// against warr-serve) each replay a shard's shared prefix and execute
// the rest of its subtree. Findings are identical to single-process
// execution at any worker count.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	warr "github.com/dslab-epfl/warr"
	// Linking the calendar plugin registers its app and create-event
	// scenario, making them campaign-testable like the paper workloads.
	_ "github.com/dslab-epfl/warr/apps/calendar"
	"github.com/dslab-epfl/warr/internal/cliutil"
	"github.com/dslab-epfl/warr/internal/distrib"
	"github.com/dslab-epfl/warr/internal/faults"
)

func main() {
	scenario := flag.String("scenario", "edit-site",
		"session to test: "+strings.Join(warr.ScenarioNames(), ", "))
	traceFile := flag.String("trace", "",
		"load the correct trace from this file instead of recording a scenario")
	save := flag.String("save", "", "archive the correct trace to this file")
	campaign := flag.String("campaign", "both", "navigation, timing, or both")
	showTree := flag.Bool("show-tree", false, "print the inferred task tree (Fig. 6)")
	showGrammar := flag.Bool("show-grammar", false, "print the inferred grammar")
	maxTraces := flag.Int("max-traces", 0, "bound the navigation campaign (0 = all mutants)")
	fuzz := flag.Bool("fuzz", false, "run the coverage-guided error-model fuzzing campaign instead of the enumerated ones")
	budget := flag.Int("budget", 0, "fuzzing replay budget (0 = engine default)")
	fuzzSeed := flag.Int64("fuzz-seed", 1, "seed for the fuzzer's deterministic mutation stream")
	workers := flag.Int("workers", 0, "distribute campaigns across this many workers over localhost HTTP (0 = in-process)")
	faultSched := flag.String("faults", "", "fault schedule injected into the worker pool's wire protocol, e.g. drop:lease/2;crash:worker1@shard3 (requires -workers)")
	list := flag.Bool("list", false, "list registered applications and scenarios, then exit")
	flag.Parse()

	if *list {
		cliutil.PrintApps(os.Stdout, "registered applications:")
		cliutil.PrintScenarios(os.Stdout, "\nregistered scenarios (testable with -scenario):", false)
		return
	}
	if *fuzz {
		*campaign = "fuzz"
	}
	if err := run(runOptions{
		scenario: *scenario, traceFile: *traceFile, save: *save, campaign: *campaign,
		showTree: *showTree, showGrammar: *showGrammar, maxTraces: *maxTraces,
		fuzzBudget: *budget, fuzzSeed: *fuzzSeed, workers: *workers, faults: *faultSched,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "weberr:", err)
		os.Exit(1)
	}
}

// correctTrace obtains the correct interaction: recorded live from the
// named scenario, or read back from a stored trace file. For a loaded
// archive it also returns the exact body text, so -save re-archives
// losslessly — nondeterminism annotation comments included.
func correctTrace(scenario, traceFile string) (tr warr.Trace, h warr.TraceArchiveHeader, body string, err error) {
	if traceFile != "" {
		data, err := os.ReadFile(traceFile)
		if err != nil {
			return warr.Trace{}, h, "", err
		}
		if warr.IsTraceArchive(data) {
			rd, err := warr.NewTraceArchiveReader(bytes.NewReader(data))
			if err != nil {
				return warr.Trace{}, h, "", err
			}
			rd.KeepBody()
			if tr, err = rd.Trace(); err != nil {
				return warr.Trace{}, h, "", err
			}
			h = rd.Header()
			body = strings.Join(rd.BodyLines(), "\n") + "\n"
		} else {
			if tr, err = warr.ParseTrace(string(data)); err != nil {
				return warr.Trace{}, h, "", err
			}
			// A legacy dump in the canonical text layout is itself a
			// valid archive body; keep it so -save preserves comments.
			if strings.HasPrefix(string(data), warr.TraceBodyMagic+"\n") {
				body = string(data)
			}
		}
		name, app := h.Scenario, h.App
		if name == "" {
			name, app = "stored trace", traceFile
		}
		fmt.Printf("loaded correct interaction: %s / %s (%d commands)\n", app, name, len(tr.Commands))
		return tr, h, body, nil
	}
	sc, err := warr.LookupScenario(scenario)
	if err != nil {
		return warr.Trace{}, h, "", err
	}
	fmt.Printf("recording correct interaction: %s / %s\n", sc.App, sc.Name)
	tr, err = warr.RecordSession(sc)
	if err != nil {
		return warr.Trace{}, h, "", err
	}
	fmt.Printf("  %d commands\n", len(tr.Commands))
	return tr, warr.TraceArchiveHeader{Scenario: sc.Name, App: sc.App}, "", nil
}

// startWorkerPool brings up the distributed-campaign fleet: a
// coordinator pool behind a loopback HTTP listener and n workers
// polling it — the same wire protocol warr-worker speaks against
// warr-serve, collapsed into one process.
func startWorkerPool(n int, faultSched string) (*distrib.Pool, func(), error) {
	popts := distrib.PoolOptions{}
	if faultSched != "" {
		sched, err := faults.Parse(faultSched)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing -faults: %w", err)
		}
		popts.Faults = faults.NewInjector(sched, func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		})
		fmt.Printf("injecting faults: %s\n", sched)
	}
	pool := distrib.NewPool(popts)
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
	fmt.Printf("distributing campaigns across %d workers via %s\n", n, coordinator)
	return pool, stop, nil
}

// runOptions carry the parsed flags into run.
type runOptions struct {
	scenario, traceFile, save, campaign string
	showTree, showGrammar               bool
	maxTraces                           int
	fuzzBudget                          int
	fuzzSeed                            int64
	workers                             int
	faults                              string
}

func run(o runOptions) error {
	scenario, traceFile, save, campaign := o.scenario, o.traceFile, o.save, o.campaign
	showTree, showGrammar := o.showTree, o.showGrammar
	maxTraces, workers := o.maxTraces, o.workers
	switch campaign {
	case "navigation", "timing", "both", "fuzz":
	default:
		return fmt.Errorf("unknown -campaign %q (want navigation, timing, both, or fuzz)", campaign)
	}
	tr, header, body, err := correctTrace(scenario, traceFile)
	if err != nil {
		return err
	}
	if save != "" {
		h := header
		h.Version = 0 // re-stamp with the version this build writes
		h.Recorder = "weberr"
		h.Created = time.Now().UTC().Format(time.RFC3339)
		if body != "" {
			err = warr.WriteTraceArchiveTextFile(save, h, body)
		} else {
			err = warr.WriteTraceArchiveFile(save, h, tr)
		}
		if err != nil {
			return fmt.Errorf("archiving trace: %w", err)
		}
		fmt.Printf("correct trace archived to %s\n", save)
	}

	// Both campaigns run as jobs on the shared engine — the same
	// execution path a warr-serve daemon drives for submitted campaigns.
	engineOpts := warr.JobEngineOptions{Workers: 1, QueueDepth: 2}
	if workers > 0 {
		pool, stop, err := startWorkerPool(workers, o.faults)
		if err != nil {
			return err
		}
		defer stop()
		engineOpts.Distributor = pool
	}
	engine := warr.NewJobEngine(engineOpts)
	defer engine.Close()

	bugs := 0
	if campaign == "navigation" || campaign == "both" {
		job, err := engine.Submit(warr.JobSpec{
			Kind:      warr.JobNavigationCampaign,
			Trace:     tr,
			TraceName: header.Scenario,
			MaxTraces: maxTraces,
		})
		if err != nil {
			return err
		}
		_ = job.Wait(nil)
		if err := job.Err(); err != nil {
			return err
		}
		if showTree {
			fmt.Println("\ninferred task tree (Fig. 6):")
			fmt.Print(job.TaskTree().String())
		}
		if showGrammar {
			fmt.Println("\ninferred interaction grammar:")
			fmt.Print(job.Grammar().String())
		}

		fmt.Println("\nnavigation-error campaign (forget / reorder / substitute):")
		bugs += printReport(job.Report())
	}

	if campaign == "timing" || campaign == "both" {
		job, err := engine.Submit(warr.JobSpec{
			Kind:      warr.JobTimingCampaign,
			Trace:     tr,
			TraceName: header.Scenario,
		})
		if err != nil {
			return err
		}
		_ = job.Wait(nil)
		if err := job.Err(); err != nil {
			return err
		}
		fmt.Println("\ntiming-error campaign (impatient users):")
		bugs += printReport(job.Report())
	}

	if campaign == "fuzz" {
		job, err := engine.Submit(warr.JobSpec{
			Kind:       warr.JobFuzzCampaign,
			Trace:      tr,
			TraceName:  header.Scenario,
			FuzzBudget: o.fuzzBudget,
			FuzzSeed:   o.fuzzSeed,
		})
		if err != nil {
			return err
		}
		_ = job.Wait(nil)
		if err := job.Err(); err != nil {
			return err
		}
		fmt.Println("\ncoverage-guided error-model fuzzing campaign:")
		if st := job.FuzzStats(); st != nil {
			fmt.Printf("  candidates generated: %d, deduped: %d, pruned: %d, replayed: %d, replay failures: %d\n",
				st.Generated, st.Deduped, st.Pruned, st.Replayed, st.ReplayFailures)
			fmt.Printf("  coverage-novel: %d, corpus size: %d, coverage bits: %d (seed %d, budget spent %d)\n",
				st.Novel, st.CorpusSize, st.CoverageBits, o.fuzzSeed, st.Spent())
		}
		for _, f := range job.Report().Findings {
			fmt.Printf("  FINDING [%s]\n    %v\n", f.Injection, f.Observed)
		}
		bugs += len(job.Report().Findings)
	}

	if bugs > 0 {
		fmt.Printf("\n%d potential bug(s) found\n", bugs)
		os.Exit(3)
	}
	fmt.Println("\nno bugs found")
	return nil
}

func printReport(rep *warr.CampaignReport) int {
	fmt.Printf("  traces generated: %d, replayed: %d, pruned: %d, replay failures: %d\n",
		rep.Generated, rep.Replayed, rep.Pruned, rep.ReplayFailures)
	for _, f := range rep.Findings {
		fmt.Printf("  FINDING [%s]\n    %v\n", f.Injection, f.Observed)
	}
	return len(rep.Findings)
}
