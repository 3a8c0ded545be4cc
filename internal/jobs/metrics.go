package jobs

// Prometheus-style metrics for the engine: queue depth, jobs by kind
// and state, live replay throughput counters (ns and allocations per
// replayed command), and — so an operator can compare the live numbers
// against the repo's pinned benchmarks — the BENCH_BASELINE.json
// counters re-exported as gauges. Everything is written in the
// Prometheus text exposition format; no client library is required (or
// permitted — this module has no dependencies).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metrics holds the engine's live counters.
type metrics struct {
	// sessions counts replay sessions driven to an end; steps, ns and
	// allocs accumulate over their replayed commands.
	sessions atomic.Int64
	steps    atomic.Int64
	ns       atomic.Int64
	allocs   atomic.Int64

	// Fuzz-campaign counters, accumulated over every finished fuzz
	// campaign the engine ran.
	fuzzGenerated atomic.Int64
	fuzzDeduped   atomic.Int64
	fuzzNovel     atomic.Int64
	fuzzFindings  atomic.Int64

	// Load-campaign counters, accumulated over every finished load
	// campaign, plus the last campaign's user count as a gauge.
	loadUsers     atomic.Int64
	loadWorlds    atomic.Int64
	loadSchedules atomic.Int64
	loadShared    atomic.Int64
	loadFindings  atomic.Int64
	loadLastUsers atomic.Int64

	// journalReplayed counts jobs revived from the write-ahead journal
	// at boot.
	journalReplayed atomic.Int64

	mu       sync.Mutex
	baseline BenchBaseline
}

// observeLoad accumulates one finished load campaign's stats.
func (m *metrics) observeLoad(users, worlds, executed, shared, findings int) {
	m.loadUsers.Add(int64(users))
	m.loadWorlds.Add(int64(worlds))
	m.loadSchedules.Add(int64(executed))
	m.loadShared.Add(int64(shared))
	m.loadFindings.Add(int64(findings))
	m.loadLastUsers.Store(int64(users))
}

// observeFuzz accumulates one finished fuzz campaign's stats.
func (m *metrics) observeFuzz(generated, deduped, novel, findings int) {
	m.fuzzGenerated.Add(int64(generated))
	m.fuzzDeduped.Add(int64(deduped))
	m.fuzzNovel.Add(int64(novel))
	m.fuzzFindings.Add(int64(findings))
}

// observeReplay records one driven session: steps replayed, wall time,
// and allocations. The allocation delta is process-global (Go has no
// per-goroutine allocation counter), so with concurrent jobs it is an
// upper bound; on the benchmark-style single-job runs it matches the
// allocs/op the bench gate pins.
func (m *metrics) observeReplay(steps int, d time.Duration, allocs uint64) {
	m.sessions.Add(1)
	m.steps.Add(int64(steps))
	m.ns.Add(int64(d))
	m.allocs.Add(int64(allocs))
}

// readMallocs samples the process's cumulative allocation count.
func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchBaseline is the parsed shape of BENCH_BASELINE.json: benchmark
// name → unit ("ns/op", "allocs/op", "B/op", ...) → pinned value.
type BenchBaseline map[string]map[string]float64

// LoadBenchBaseline reads a BENCH_BASELINE.json file.
func LoadBenchBaseline(path string) (BenchBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		Benchmarks BenchBaseline `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("jobs: parsing bench baseline %s: %w", path, err)
	}
	return file.Benchmarks, nil
}

// SetBenchBaseline publishes pinned benchmark counters on /metrics as
// warr_bench_baseline gauges.
func (e *Engine) SetBenchBaseline(b BenchBaseline) {
	e.metrics.mu.Lock()
	e.metrics.baseline = b
	e.metrics.mu.Unlock()
}

// WriteMetrics writes the engine's metrics in the Prometheus text
// exposition format.
func (e *Engine) WriteMetrics(w io.Writer) error {
	depth, capacity := e.QueueDepth()
	byKindState := make(map[Kind]map[State]int)
	for _, job := range e.Jobs() {
		m := byKindState[job.Spec.Kind]
		if m == nil {
			m = make(map[State]int)
			byKindState[job.Spec.Kind] = m
		}
		m[job.State()]++
	}
	draining := 0
	if e.Draining() {
		draining = 1
	}

	var b []byte
	gauge := func(name, help string, value any) {
		b = append(b, fmt.Sprintf("# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, value)...)
	}
	gauge("warr_queue_depth", "Jobs waiting in the bounded queue.", depth)
	gauge("warr_queue_capacity", "Capacity of the bounded queue.", capacity)
	gauge("warr_workers", "Size of the worker pool.", e.opts.Workers)
	gauge("warr_engine_draining", "1 once a graceful drain has begun.", draining)

	b = append(b, "# HELP warr_jobs_total Jobs by kind and state.\n# TYPE warr_jobs_total gauge\n"...)
	// Every kind in the table, so jobs-by-kind series exist even at zero.
	for k := KindReplay; int(k) < len(kinds); k++ {
		for _, s := range States() {
			b = append(b, fmt.Sprintf("warr_jobs_total{kind=%q,state=%q} %d\n", k, s, byKindState[k][s])...)
		}
	}

	m := &e.metrics
	sessions := m.sessions.Load()
	steps := m.steps.Load()
	ns := m.ns.Load()
	allocs := m.allocs.Load()
	counter := func(name, help string, value int64) {
		b = append(b, fmt.Sprintf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, value)...)
	}
	counter("warr_replay_sessions_total", "Replay sessions driven to an end.", sessions)
	counter("warr_replay_steps_total", "Commands replayed across all sessions.", steps)
	counter("warr_replay_ns_total", "Wall nanoseconds spent replaying commands.", ns)
	counter("warr_replay_allocs_total", "Heap allocations during replay (process-global sample).", allocs)
	perStep := func(total int64) float64 {
		if steps == 0 {
			return 0
		}
		return float64(total) / float64(steps)
	}
	gauge("warr_replay_ns_per_step", "Mean wall nanoseconds per replayed command.", perStep(ns))
	gauge("warr_replay_allocs_per_step", "Mean heap allocations per replayed command.", perStep(allocs))

	counter("warr_fuzz_candidates_total", "Candidates generated by fuzz campaigns.", m.fuzzGenerated.Load())
	counter("warr_fuzz_deduped_total", "Fuzz candidates dropped by chained-digest dedupe.", m.fuzzDeduped.Load())
	counter("warr_fuzz_coverage_novel_total", "Fuzz replays that set a new coverage bit.", m.fuzzNovel.Load())
	counter("warr_fuzz_findings_total", "Oracle findings discovered by fuzz campaigns.", m.fuzzFindings.Load())

	counter("warr_load_users_total", "Virtual users hosted by load campaigns.", m.loadUsers.Load())
	counter("warr_load_worlds_total", "Shared worlds absorbed by load campaigns.", m.loadWorlds.Load())
	counter("warr_load_schedules_total", "Schedules executed by load campaigns.", m.loadSchedules.Load())
	counter("warr_load_shared_total", "World schedules served from shared results.", m.loadShared.Load())
	counter("warr_load_findings_total", "Interference findings discovered by load campaigns.", m.loadFindings.Load())
	gauge("warr_load_last_users", "Virtual user count of the most recent load campaign.", m.loadLastUsers.Load())

	counter("warr_journal_replayed_jobs", "Jobs revived from the write-ahead journal at boot.", m.journalReplayed.Load())

	m.mu.Lock()
	baseline := m.baseline
	m.mu.Unlock()
	if len(baseline) > 0 {
		b = append(b, "# HELP warr_bench_baseline Pinned benchmark counters from BENCH_BASELINE.json.\n# TYPE warr_bench_baseline gauge\n"...)
		names := make([]string, 0, len(baseline))
		for name := range baseline {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			units := make([]string, 0, len(baseline[name]))
			for unit := range baseline[name] {
				units = append(units, unit)
			}
			sort.Strings(units)
			for _, unit := range units {
				b = append(b, fmt.Sprintf("warr_bench_baseline{benchmark=%q,unit=%q} %v\n", name, unit, baseline[name][unit])...)
			}
		}
	}
	_, err := w.Write(b)
	return err
}
