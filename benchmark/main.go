// Command warr-perf is the end-to-end and per-layer benchmark of this
// repository. It runs one of four workloads — replay, campaign, distrib
// and serve — in child processes, checks every operation's output
// against a reference computed at set-up, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 (or
// a directory) they are the per-layer ones, and a Chrome trace-event
// span file is written for Perfetto.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload replay --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metric glossary and first
// readings.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// workloads lists the workloads BENCHMARK.json names, in its order.
var workloads = []string{"replay", "campaign", "distrib", "serve"}

const (
	// segments is how many child processes share an untraced run's
	// window, each measuring an equal part of it with its own inputs.
	// Two processes of one binary on the reference machine differ by up
	// to 40% in op latency (memory placement, scheduling), more than a
	// run may vary, so a run pools several processes' samples rather than
	// trusting one. A traced run is a single process.
	segments = 4
	// setupOnly is how many children per untraced run only set up;
	// setup_s is the median over them and the measuring children.
	setupOnly = 5
)

// defaultTraceDir receives span files for -trace 1.
const defaultTraceDir = ".bench_build/traces"

func main() {
	workload := flag.String("workload", "", "replay, campaign, distrib or serve")
	seed := flag.Int64("seed", 1, "seed every workload input is generated from")
	seconds := flag.Float64("seconds", 20, "measured time of the run, in seconds")
	traceFlag := flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics and a span file in "+defaultTraceDir+"; or a directory for the span file")
	role := flag.String("role", "", "internal: run as a workload child (setup or run)")
	segment := flag.Int("segment", 0, "internal: which segment of the run a child measures")
	flag.Parse()

	window := time.Duration(*seconds * float64(time.Second))
	traceDir := *traceFlag
	switch traceDir {
	case "0":
		traceDir = ""
	case "1":
		traceDir = defaultTraceDir
	}
	if *role != "" {
		if err := runChild(*role, *workload, *seed, *segment, window, traceDir); err != nil {
			fmt.Fprintln(os.Stderr, "warr-perf:", err)
			os.Exit(1)
		}
		return
	}
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "warr-perf: -workload must be one of %v\n", workloads)
		os.Exit(2)
	}
	if window <= 0 {
		fmt.Fprintln(os.Stderr, "warr-perf: -seconds must be positive")
		os.Exit(2)
	}
	out, _, err := measure(*workload, *seed, window, traceDir)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(out); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "warr-perf: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// tailFor is the tail percentile each workload reports, chosen so that
// at the default run length at least minBeyond operations lie beyond it.
var tailFor = map[string]float64{
	"replay":   0.99,
	"campaign": 0.99,
	"serve":    0.99,
	"distrib":  0.95,
}

// measure runs one workload's children, prints the human-readable
// metric lines, and returns the result line and the pooled result of
// the measuring children.
func measure(name string, seed int64, window time.Duration, traceDir string) (resultLine, childResult, error) {
	setupRuns, n, list := setupOnly, segments, endToEnd
	if traceDir != "" {
		setupRuns, n, list = 0, 1, perLayer
	}
	var setups []float64
	for range setupRuns {
		c, err := spawn(name, "setup", seed, 0, window, traceDir)
		if err != nil {
			return resultLine{}, childResult{}, err
		}
		setups = append(setups, c.ready.Seconds())
	}
	var res childResult
	var maxRSSKB int64
	for i := range n {
		c, err := spawn(name, "run", seed, i, window/time.Duration(n), traceDir)
		if err != nil {
			return resultLine{}, res, err
		}
		setups = append(setups, c.ready.Seconds())
		maxRSSKB = max(maxRSSKB, c.maxRSSKB)
		res.merge(c.res)
	}
	lat := pooled(res.Latencies).summarize(tailFor[name])
	vals := res.Layers
	vals["setup_s"] = median(setups)
	vals["op_p50_ms"] = mixedMedian(res.Latencies, res.Weights)
	vals["op_tail_ms"] = lat.Tail
	vals["ops_per_s"] = ratio(float64(res.Met), res.Elapsed)
	vals["peak_rss_mb"] = float64(maxRSSKB) / 1024
	notes := map[string]string{
		"setup_s":    fmt.Sprintf("median of %d set-ups", len(setups)),
		"op_p50_ms":  fmt.Sprintf("%d ops; per-kind medians weighted by the mix", lat.N),
		"op_tail_ms": fmt.Sprintf("%s of %d ops", pctLabel(lat.TailPct), lat.N),
	}

	out := resultLine{
		Correct:   res.Wrong == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]value),
	}
	for _, m := range list {
		v := vals[m.name]
		out.Metrics[m.name] = value{v, m.unit}
		line := fmt.Sprintf("%-9s %-32s %14.4f %s", name, m.name, v, m.unit)
		if n := notes[m.name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
	for i, kind := range res.Classes {
		l := res.Latencies[i]
		fmt.Printf("%-9s kind %-24s p50 %10.4f ms  (%d ops, weight %g)\n", name, kind, l.quantile(0.5), len(l), res.Weights[i])
	}
	fmt.Printf("%-9s attempted %d, failed %d, wrong %d\n", name, res.Attempted, res.Failed, res.Wrong)
	if name == "serve" {
		fmt.Printf("%-9s peak load-generator connections %d\n", name, res.PeakConns)
	}
	for _, e := range res.Errors {
		fmt.Printf("%-9s failure: %s\n", name, e)
	}
	return out, res, nil
}

// merge adds a segment's result to a run's.
func (r *childResult) merge(c childResult) {
	r.Attempted += c.Attempted
	r.Failed += c.Failed
	r.Wrong += c.Wrong
	r.Errors = append(r.Errors, c.Errors[:min(len(c.Errors), maxErrors-len(r.Errors))]...)
	r.Classes, r.Weights = c.Classes, c.Weights
	if r.Latencies == nil {
		r.Latencies = make([]latencies, len(c.Latencies))
	}
	for i, l := range c.Latencies {
		r.Latencies[i] = append(r.Latencies[i], l...)
	}
	r.Met += c.Met
	r.Elapsed += c.Elapsed
	r.Layers = c.Layers
	r.PeakConns = max(r.PeakConns, c.PeakConns)
}

// child is what the parent observed of one workload child.
type child struct {
	ready    time.Duration // from starting the process until it announced readiness
	res      childResult   // role run only
	maxRSSKB int64
}

// spawn runs one workload child to completion.
func spawn(name, role string, seed int64, segment int, window time.Duration, traceDir string) (child, error) {
	var c child
	self, err := os.Executable()
	if err != nil {
		return c, err
	}
	trace := traceDir
	if trace == "" {
		trace = "0"
	}
	// A child that hangs is killed well before the 180 s a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 2*window+120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-role", role, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-segment", strconv.Itoa(segment),
		"-seconds", strconv.FormatFloat(window.Seconds(), 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return c, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return c, err
	}
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if c.ready == 0 && sc.Text() == readyLine {
			c.ready = time.Since(start)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if scanErr != nil {
		_, _ = io.Copy(io.Discard, stdout)
	}
	if err := cmd.Wait(); err != nil {
		return c, fmt.Errorf("%s child: %w", role, err)
	}
	if scanErr != nil {
		return c, scanErr
	}
	if c.ready == 0 {
		return c, errors.New(role + " child never became ready")
	}
	if role == "run" {
		if err := json.Unmarshal(last, &c.res); err != nil {
			return c, fmt.Errorf("decoding child result: %w", err)
		}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.maxRSSKB = ru.Maxrss // KiB on Linux
	}
	return c, nil
}
