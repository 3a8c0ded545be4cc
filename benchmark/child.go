package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// childResult is what a workload child reports to the parent on its
// last line of standard output.
type childResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     int      `json:"wrong"`
	Errors    []string `json:"errors,omitempty"`
	// Classes name the kinds of operation the workload mixes, Weights
	// give each kind's share of the mix, and Latencies[i] holds the
	// untraced latencies of the operations of kind i.
	Classes   []string    `json:"classes"`
	Weights   []float64   `json:"weights"`
	Latencies []latencies `json:"latencies"`
	// Met counts the operations that succeeded (within the latency limit,
	// on serve) during the Elapsed seconds of the measured window.
	Met     int                `json:"met"`
	Elapsed float64            `json:"elapsed"`
	Layers  map[string]float64 `json:"layers"`
	// PeakConns is the most client connections the load generator held
	// open at once (serve only).
	PeakConns int `json:"peak_conns"`
}

// outcome classifies one finished operation.
type outcome int

const (
	opOK       outcome = iota
	opWrong            // error or output that differs from the reference
	opLate             // correct, but past the latency limit (serve)
	opRejected         // refused with 503 (serve)
)

// maxErrors is how many failure messages a child keeps.
const maxErrors = 5

// tally counts operations and keeps the first few failure messages.
type tally struct {
	attempted, failed, wrong int
	errors                   []string
}

func (t *tally) add(o outcome, err error) {
	t.attempted++
	if o == opOK {
		return
	}
	t.failed++
	if o == opWrong {
		t.wrong++
	}
	if err != nil && len(t.errors) < maxErrors {
		t.errors = append(t.errors, err.Error())
	}
}

func (t *tally) into(r *childResult) {
	r.Attempted, r.Failed, r.Wrong, r.Errors = t.attempted, t.failed, t.wrong, t.errors
	r.Met = t.attempted - t.failed
	r.Layers["fail_ratio"] = ratio(float64(t.failed), float64(t.attempted))
}

// closedWorkload is a workload driven by one client that issues its next
// operation as soon as the previous one returns.
type closedWorkload interface {
	// mix names the kinds of operation and how many of every block of
	// picks each makes up.
	mix() (names []string, counts []int)
	// op performs the next operation and returns its kind. o is nil when
	// the operation is not traced. A non-nil error means the operation
	// failed or its output differed from the reference.
	op(ctx context.Context, o *opTrace) (int, error)
	// layers adds the workload's per-layer metrics from the traced ops.
	layers(t *tracer, m map[string]float64)
	close()
}

// warmup is the unmeasured lead-in before a child's window: long enough
// for caches, the GC pacer and (for distrib) the worker poll rhythm to
// settle, and a quarter of the window at most so short runs stay short.
func warmup(window time.Duration) time.Duration { return min(time.Second, window/4) }

// runClosed drives a closed-loop workload for the warm-up and window.
// With a tracer, alternate operations are traced, so the traced and
// untraced latency samples interleave and their ratio is the tracing
// overhead.
func runClosed(ctx context.Context, w closedWorkload, window time.Duration, t *tracer) childResult {
	for end := time.Now().Add(warmup(window)); time.Now().Before(end); {
		_, _ = w.op(ctx, nil)
	}
	classes, counts := w.mix()
	res := childResult{Classes: classes, Latencies: make([]latencies, len(classes)), Layers: make(map[string]float64)}
	for _, c := range counts {
		res.Weights = append(res.Weights, float64(c))
	}
	traced := make([]latencies, len(classes))
	var tl tally
	rt := sampleRuntime()
	start := time.Now()
	for seq := 0; time.Since(start) < window; seq++ {
		var o *opTrace
		if t != nil && seq%2 == 0 {
			o = t.start("op")
		}
		t0 := time.Now()
		class, err := w.op(ctx, o)
		d := time.Since(t0)
		if o != nil {
			t.finish(o)
			traced[class].add(d)
		} else {
			res.Latencies[class].add(d)
		}
		if err != nil {
			tl.add(opWrong, err)
		} else {
			tl.add(opOK, nil)
		}
	}
	res.Elapsed = time.Since(start).Seconds()
	tl.into(&res)
	rt.into(res.Layers, tl.attempted)
	if t != nil {
		w.layers(t, res.Layers)
		traceLayers(t, traced, res.Latencies, res.Weights, res.Layers)
	}
	return res
}

// traceLayers adds the tracing bookkeeping metrics.
func traceLayers(t *tracer, traced, plain []latencies, weights []float64, m map[string]float64) {
	m["trace.overhead_ratio"] = ratio(mixedMedian(traced, weights), mixedMedian(plain, weights)) - 1
	m["trace.attributed_ratio"] = t.attributedRatio()
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct{ alloc, gcCPU, totalCPU float64 }

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{alloc: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// into adds the Go runtime metrics of the window that began at r.
func (r runtimeSample) into(m map[string]float64, ops int) {
	now := sampleRuntime()
	m["go.alloc_kb_per_op"] = ratio(now.alloc-r.alloc, float64(ops)) / 1024
	m["go.gc_cpu_fraction"] = ratio(now.gcCPU-r.gcCPU, now.totalCPU-r.totalCPU)
	m["go.heap_end_mb"] = float64(liveHeap()) / (1 << 20)
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// keepOps is how many traced operations the span file holds.
const keepOps = 200

// runChild is the body of a workload child process: set up, announce
// readiness on standard output, and — unless only set-up is measured —
// warm up, measure, and print the result as the last line.
func runChild(role, name string, seed int64, segment int, window time.Duration, traceDir string) error {
	ctx := context.Background()
	root, err := repoRoot()
	if err != nil {
		return err
	}
	w, err := newWorkload(ctx, name, seed, segment, root)
	if err != nil {
		return fmt.Errorf("setting up %s: %w", name, err)
	}
	defer w.close()
	fmt.Println(readyLine)
	if role == "setup" {
		return nil
	}
	var t *tracer
	if traceDir != "" {
		t = newTracer(keepOps)
	}
	res := w.run(ctx, window, t)
	if t != nil {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := t.writeChrome(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "warr-perf: spans of %s written to %s\n", name, path)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

const readyLine = "ready"

// runner is a workload as the child drives it.
type runner interface {
	run(ctx context.Context, window time.Duration, t *tracer) childResult
	close()
}

// closedRunner adapts a closed-loop workload to runner.
type closedRunner struct{ closedWorkload }

func (c closedRunner) run(ctx context.Context, window time.Duration, t *tracer) childResult {
	return runClosed(ctx, c.closedWorkload, window, t)
}

// newWorkload builds a workload and everything it checks against.
func newWorkload(ctx context.Context, name string, seed int64, segment int, root string) (runner, error) {
	switch name {
	case "replay":
		w, err := newReplay(seed, segment, root)
		return closedRunner{w}, err
	case "campaign":
		w, err := newCampaign(ctx, seed, segment, root, false)
		return closedRunner{w}, err
	case "distrib":
		w, err := newCampaign(ctx, seed, segment, root, true)
		return closedRunner{w}, err
	case "serve":
		return newServe(ctx, seed, segment, root)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// repoRoot finds the checkout root: the nearest directory at or above
// the working directory holding testdata/corpus.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fi, err := os.Stat(filepath.Join(dir, "testdata", "corpus")); err == nil && fi.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no testdata/corpus at or above the working directory")
		}
		dir = parent
	}
}
