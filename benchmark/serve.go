package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dslab-epfl/warr/internal/auser"
	"github.com/dslab-epfl/warr/internal/distrib"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/serve"
)

const (
	// serveRate is the open loop's arrival rate in jobs/s: about a
	// quarter of what two closed-loop client connections sustain on the
	// reference machine (see README.md, "Calibration").
	serveRate = 100.0
	// latencyLimit bounds a served job's latency, from when it was due
	// to its terminal SSE frame: about twice the slowest job seen at
	// serveRate, so that at that rate no job misses it.
	latencyLimit = 500 * time.Millisecond
	// serveClients is the load generator's goroutine and connection
	// count: one per core of the reference machine.
	serveClients = 2
	// Ladder steps raise the rate by 10% and last 3 s (less in a window
	// shorter than 6 s); at most ladderSteps of them run (up to 3.1×
	// serveRate), bounding the run's time.
	ladderStep  = 3 * time.Second
	ladderSteps = 12
	// spanHeader carries "<op>.<span>" from a traced client request to
	// the server middleware, so the handler's span nests under the
	// client's.
	spanHeader = "X-Warr-Perf-Span"
)

// serveInput is one distinct job the generator can submit.
type serveInput struct {
	kind string // jobs kind name
	path string // POST target
	body []byte
	spec jobs.Spec // the same job, for the direct reference engine
	// frame and stored are the reference: the last result frame of the
	// direct engine's event stream and its rendered stored result.
	frame, stored string
}

// serveMix is the job mix: kind → share of arrivals.
var serveMix = map[string]float64{
	"replay":              0.5,
	"report":              0.2,
	"navigation-campaign": 0.2,
	"load-campaign":       0.1,
}

// interactiveKinds are the jobs a user waits on: a replay or an AUsER
// report. Latency is reported over these alone. Campaigns are batch work
// sharing the workers; their run times are per-layer metrics, and on the
// reference machine their latency percentiles vary by a third from run
// to run, beyond any bound a regression check could use.
var interactiveKinds = []string{"replay", "report"}

// loadSeeds are the schedule seeds load-campaign jobs draw from.
var loadSeeds = []int64{1, 2, 3, 4}

// serveWork is the serve workload: an in-process warr-serve configured
// like the binary, driven over loopback HTTP by an open-loop generator.
type serveWork struct {
	seed    int64
	segment int
	tmpRoot string
	traces  []corpusTrace
	client  *http.Client
	conns   connCounter
	inputs  []serveInput
	weights []float64
	stack   *stack // the server the measured window runs against
	// setupHeap is the live heap once set-up finished, before any job
	// was submitted to the served engine.
	setupHeap uint64

	// traced maps a schedule index to its operation's trace while the
	// job's POST is in flight.
	traced sync.Map
}

func newServe(ctx context.Context, seed int64, segment int, root string) (*serveWork, error) {
	traces, err := loadCorpus(root)
	if err != nil {
		return nil, err
	}
	w := &serveWork{
		seed:    seed,
		segment: segment,
		tmpRoot: filepath.Join(root, ".bench_build", "tmp"),
		traces:  traces,
	}
	w.client = &http.Client{Transport: &http.Transport{
		DialContext:         w.conns.dial,
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
	}}
	if w.stack, err = w.newStack(); err != nil {
		return nil, err
	}
	if err := w.buildInputs(); err != nil {
		w.close()
		return nil, err
	}
	if err := w.reference(ctx); err != nil {
		w.close()
		return nil, err
	}
	w.setupHeap = liveHeap()
	return w, nil
}

// stack is one served warr-serve: its journal directory, engine and
// HTTP server.
type stack struct {
	dir     string
	journal *jobs.Journal
	engine  *jobs.Engine
	hs      *http.Server
	done    chan struct{}
	base    string
}

// newStack starts a server as cmd/warr-serve builds one — pool, engine
// over the pool with the fsync'd write-ahead journal, server mounting
// the pool (no worker connects, so campaigns run in-process) — and
// uploads the corpus to it.
func (w *serveWork) newStack() (*stack, error) {
	if err := os.MkdirAll(w.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(w.tmpRoot, "serve-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	pool := distrib.NewPool(distrib.PoolOptions{})
	j, recovered, err := jobs.OpenJournal(filepath.Join(dir, "jobs.journal"), nil)
	if err != nil {
		s.close()
		return nil, err
	}
	s.journal = j
	s.engine = jobs.New(jobs.Options{Workers: 2, QueueDepth: 64, Distributor: pool, Journal: j})
	s.engine.Revive(recovered)
	srv := serve.New(serve.Options{Engine: s.engine, Distrib: pool})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: w.middleware(srv.Handler())}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln)
	}()
	for _, t := range w.traces {
		resp, err := w.client.Post(s.base+"/api/traces?name="+t.name, "application/octet-stream", bytes.NewReader(t.raw))
		if err == nil {
			err = drain(resp, http.StatusCreated)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("uploading %s: %w", t.name, err)
		}
	}
	return s, nil
}

func (s *stack) close() {
	if s.hs != nil {
		_ = s.hs.Close()
		<-s.done
	}
	if s.engine != nil {
		s.engine.Close()
	}
	if s.journal != nil {
		_ = s.journal.Close()
	}
	_ = os.RemoveAll(s.dir)
}

func (w *serveWork) close() {
	if w.stack != nil {
		w.stack.close()
	}
	w.client.CloseIdleConnections()
}

// buildInputs lists every distinct job the mix can submit.
func (w *serveWork) buildInputs() error {
	add := func(kind, path string, req any, spec jobs.Spec) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, serveInput{kind: kind, path: path, body: body, spec: spec})
		return nil
	}
	for _, t := range w.traces {
		if err := add("replay", "/api/jobs", serve.JobRequest{Kind: "replay", Trace: t.name},
			jobs.Spec{Kind: jobs.KindReplay, Trace: t.trace, TraceName: t.name}); err != nil {
			return err
		}
		desc := "benchmark report of " + t.name
		if err := add("report", "/api/reports", auser.Report{Description: desc, URL: t.trace.StartURL, Trace: t.trace},
			jobs.Spec{Kind: jobs.KindReport, Trace: t.trace, Description: desc}); err != nil {
			return err
		}
		if !slices.Contains(tableII, t.name) {
			continue
		}
		if err := add("navigation-campaign", "/api/jobs", serve.JobRequest{Kind: "navigation-campaign", Trace: t.name},
			jobs.Spec{Kind: jobs.KindNavigationCampaign, Trace: t.trace, TraceName: t.name}); err != nil {
			return err
		}
	}
	for _, wl := range multiuser.WorkloadNames() {
		for _, s := range loadSeeds {
			req := serve.JobRequest{Kind: "load-campaign", Workload: wl, Users: 64, Cohort: 4, ScheduleSeed: s}
			spec := jobs.Spec{Kind: jobs.KindLoadCampaign, Workload: wl, Users: 64, Cohort: 4, ScheduleSeed: s}
			if err := add("load-campaign", "/api/jobs", req, spec); err != nil {
				return err
			}
		}
	}
	perKind := make(map[string]int)
	for _, in := range w.inputs {
		perKind[in.kind]++
	}
	for _, in := range w.inputs {
		w.weights = append(w.weights, serveMix[in.kind]/float64(perKind[in.kind]))
	}
	return nil
}

// reference runs every distinct job once on a direct engine — no HTTP,
// no journal, no pool — and keeps its final result frame and stored
// result. Served jobs must reproduce both.
func (w *serveWork) reference(ctx context.Context) error {
	direct := jobs.New(jobs.Options{Workers: 2})
	defer direct.Close()
	for i := range w.inputs {
		in := &w.inputs[i]
		job, err := direct.Submit(in.spec)
		if err != nil {
			return err
		}
		if err := job.Wait(ctx); err != nil {
			return err
		}
		if job.State() != jobs.StateDone {
			return fmt.Errorf("reference %s job ended %s: %v", in.kind, job.State(), job.Err())
		}
		if in.frame, err = resultFrame(job.Events().Snapshot()); err != nil {
			return err
		}
		in.stored = renderStored(job)
	}
	return nil
}

// resultFrame is the last event of a stream that is not a state
// transition, JSON-encoded as its SSE data line carries it.
func resultFrame(evs []jobs.Event) (string, error) {
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].EventType() != "state" {
			line, err := jobs.EncodeEvent(evs[i])
			return strings.TrimSuffix(string(line), "\n"), err
		}
	}
	return "", errors.New("event stream has no result frame")
}

// renderStored renders the result a job keeps once finished.
func renderStored(j *jobs.Job) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", j.Spec.Kind, j.State())
	if r := j.Result(); r != nil {
		fmt.Fprintf(&b, " played=%d failed=%d halted=%v complete=%v", r.Played, r.Failed, r.Halted, r.Complete())
	}
	if rep := j.Report(); rep != nil {
		fmt.Fprintf(&b, " generated=%d replayed=%d pruned=%d failures=%d", rep.Generated, rep.Replayed, rep.Pruned, rep.ReplayFailures)
		for _, f := range rep.Findings {
			fmt.Fprintf(&b, "\n%s: %v", f.Injection, f.Observed)
		}
	}
	if c := j.Classification(); c != nil {
		fmt.Fprintf(&b, " verdict=%s signal=%q minimized=%d replays=%d", c.Verdict, c.Signal, len(c.Minimized.Commands), c.Replays)
	}
	return b.String()
}

// ---- the open-loop generator ----

// arrival is one scheduled client action: a job (input >= 0) or the
// once-a-second reads of /metrics and /api/jobs (input < 0).
type arrival struct {
	due   time.Duration
	input int
}

// schedule draws the arrivals of span at rate, plus a read every whole
// second, in due order.
func schedule(seed int64, segment int, purpose uint64, weights []float64, rate float64, span time.Duration) []arrival {
	r := stream(seed, segment, purpose)
	var out []arrival
	next := time.Second
	for _, t := range arrivals(r, rate, span) {
		for ; next <= t; next += time.Second {
			out = append(out, arrival{due: next, input: -1})
		}
		out = append(out, arrival{due: t, input: weighted(r, weights)})
	}
	for ; next < span; next += time.Second {
		out = append(out, arrival{due: next, input: -1})
	}
	return out
}

// record is what the generator observed of one arrival.
type record struct {
	late    time.Duration // start − due
	latency time.Duration // terminal frame − due
	done    time.Time     // when the terminal frame arrived
	outcome outcome
	err     error
	traced  bool
	stale   bool // the stream carried a state frame after its terminal one
	// Reads only.
	metrics, list time.Duration
}

// openLoop plays sched from t0 with clients goroutines. Each takes the
// next arrival, sleeps until it is due and runs it through do; an
// arrival whose client is still busy starts late. openLoop records every
// arrival's lateness (start − due) and, once do returns, its latency
// from the due time — so a stall is charged to every arrival it delays,
// not only to the one it hit. An error from do stops that client.
func openLoop(sched []arrival, t0 time.Time, clients int, do func(i int, due time.Time, rec *record) error) ([]record, error) {
	recs := make([]record, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := t0.Add(sched[i].due)
				time.Sleep(time.Until(due))
				rec := &recs[i]
				rec.late = time.Since(due)
				if err := do(i, due, rec); err != nil {
					errs <- err
					return
				}
				if rec.done.IsZero() {
					rec.done = time.Now()
				}
				rec.latency = rec.done.Sub(due)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return recs, <-errs
}

// drive plays the schedule against s. Jobs due at or after traceFrom
// alternate traced and untraced when t is set.
func (w *serveWork) drive(ctx context.Context, s *stack, sched []arrival, t0 time.Time, t *tracer, traceFrom time.Duration) ([]record, error) {
	return openLoop(sched, t0, serveClients, func(i int, due time.Time, rec *record) error {
		a := sched[i]
		if a.input < 0 {
			return w.reads(ctx, s, rec)
		}
		var o *opTrace
		if t != nil && a.due >= traceFrom && i%2 == 0 {
			o = t.startAt("op", due)
			rec.traced = true
		}
		in := &w.inputs[a.input]
		rec.outcome, rec.err = w.submitAndFollow(ctx, s, i, in, due, o, rec)
		if rec.outcome == opOK && rec.done.Sub(due) > latencyLimit {
			rec.outcome = opLate
			rec.err = fmt.Errorf("%s job took %v from its due time, limit %v", in.kind, rec.done.Sub(due), latencyLimit)
		}
		if o != nil {
			t.finish(o)
		}
		return nil
	})
}

// reads fetches /metrics and /api/jobs, as a dashboard polling the
// server would, so reads run beside the job writes.
func (w *serveWork) reads(ctx context.Context, s *stack, rec *record) error {
	for _, r := range []struct {
		path string
		d    *time.Duration
	}{{"/metrics", &rec.metrics}, {"/api/jobs", &rec.list}} {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+r.path, nil)
		if err != nil {
			return err
		}
		resp, err := w.client.Do(req)
		if err == nil {
			err = drain(resp, http.StatusOK)
		}
		if err != nil {
			return fmt.Errorf("GET %s: %w", r.path, err)
		}
		*r.d = time.Since(start)
	}
	return nil
}

// submitAndFollow submits one job, follows its SSE stream to the
// terminal frame, and checks that frame, the result frame before it and
// the stored result against the reference.
func (w *serveWork) submitAndFollow(ctx context.Context, s *stack, i int, in *serveInput, due time.Time, o *opTrace, rec *record) (outcome, error) {
	o.record("loadgen.late", rootSpan, due, due.Add(rec.late))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+in.path, bytes.NewReader(in.body))
	if err != nil {
		return opWrong, err
	}
	req.Header.Set("Content-Type", "application/json")
	post := o.begin("serve.post", rootSpan)
	if o != nil {
		w.traced.Store(i, o)
		defer w.traced.Delete(i)
		req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", i, post))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		o.end(post)
		return opWrong, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end(post)
	switch {
	case err != nil:
		return opWrong, err
	case resp.StatusCode == http.StatusServiceUnavailable:
		return opRejected, fmt.Errorf("%s job refused: %s", in.kind, bytes.TrimSpace(body))
	case resp.StatusCode != http.StatusCreated:
		return opWrong, fmt.Errorf("%s job: %s: %s", in.kind, resp.Status, bytes.TrimSpace(body))
	}
	var view serve.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		return opWrong, err
	}
	f, err := w.follow(ctx, s, view.ID)
	rec.done, rec.stale = f.at, f.stale > 0
	if err != nil {
		return opWrong, err
	}
	job, err := s.engine.Get(view.ID)
	if err != nil {
		return opWrong, err
	}
	o.record("jobs.queue_wait", rootSpan, job.Created(), job.Started())
	o.record("jobs.run."+in.kind, rootSpan, job.Started(), job.Finished())
	o.record("jobs.publish", rootSpan, job.Finished(), f.at)
	switch {
	case f.State != "done" || f.Kind != in.kind:
		return opWrong, fmt.Errorf("%s %s: terminal frame %+v", in.kind, view.ID, f.StateEvent)
	case f.result != in.frame:
		return opWrong, fmt.Errorf("%s %s: result frame\n%s\nreference\n%s", in.kind, view.ID, f.result, in.frame)
	case renderStored(job) != in.stored:
		return opWrong, fmt.Errorf("%s %s: stored result\n%s\nreference\n%s", in.kind, view.ID, renderStored(job), in.stored)
	}
	return opOK, nil
}

// finalFrame is the first terminal state frame of a job's SSE stream,
// when it arrived, the last result frame before it, and how many state
// frames followed it.
type finalFrame struct {
	jobs.StateEvent
	at     time.Time
	result string
	stale  int
}

// follow reads a job's SSE stream to its end. The terminal state frame
// is the moment a client learns the job is over. A state frame published
// after it is counted as stale, not taken as final: the submit handler
// publishes the state it read before fsyncing the journal, and by then
// the worker may have published later states.
func (w *serveWork) follow(ctx context.Context, s *stack, id string) (finalFrame, error) {
	var f finalFrame
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/api/jobs/"+id+"/events", nil)
	if err != nil {
		return f, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return f, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return f, fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	var event string
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return f, err
		}
		line = strings.TrimSuffix(line, "\n")
		data, isData := strings.CutPrefix(line, "data: ")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case !isData:
		case !f.at.IsZero():
			if event == "state" {
				f.stale++
			}
		case event != "state":
			f.result = data
		default:
			if err := json.Unmarshal([]byte(data), &f.StateEvent); err != nil {
				return f, err
			}
			switch f.State {
			case "done", "failed", "cancelled":
				f.at = time.Now()
			}
		}
	}
	if f.at.IsZero() {
		return f, fmt.Errorf("events of %s ended without a terminal state frame", id)
	}
	return f, nil
}

// middleware times the submission handlers of traced requests: the
// handler span nests under the client's serve.post span.
func (w *serveWork) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		op, parent, ok := w.spanOf(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(rw, r)
			return
		}
		s := op.begin("serve.submit", parent)
		h.ServeHTTP(rw, r)
		op.end(s)
	})
}

func (w *serveWork) spanOf(tag string) (*opTrace, int, bool) {
	opStr, spanStr, ok := strings.Cut(tag, ".")
	if !ok {
		return nil, 0, false
	}
	i, err1 := strconv.Atoi(opStr)
	s, err2 := strconv.Atoi(spanStr)
	if err1 != nil || err2 != nil {
		return nil, 0, false
	}
	v, ok := w.traced.Load(i)
	if !ok {
		return nil, 0, false
	}
	return v.(*opTrace), s, true
}

// drain reads and closes a response body, failing on an unexpected
// status.
func drain(resp *http.Response, want int) error {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// connCounter dials TCP connections and tracks how many are open at
// once.
type connCounter struct {
	open, peak atomic.Int64
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := c.open.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return &countedConn{Conn: conn, c: c}, nil
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

// ---- measurement ----

func (w *serveWork) run(ctx context.Context, window time.Duration, t *tracer) childResult {
	warm := warmup(window)
	sched := schedule(w.seed, w.segment, streamArrivals, w.weights, serveRate, warm+window)
	// The runtime counters are sampled when the window opens, so the
	// warm-up's allocations are excluded.
	rtc := make(chan runtimeSample, 1)
	t0 := time.Now()
	time.AfterFunc(warm, func() { rtc <- sampleRuntime() })
	recs, err := w.drive(ctx, w.stack, sched, t0, t, warm)
	rt := <-rtc
	res := childResult{Layers: make(map[string]float64)}
	if err != nil {
		res.Errors, res.Wrong = []string{err.Error()}, 1
		return res
	}
	// Latencies are kept per interactive kind, weighted by its share of
	// the mix.
	res.Classes = interactiveKinds
	plain, traced := make([]latencies, len(res.Classes)), make([]latencies, len(res.Classes))
	for _, kind := range res.Classes {
		res.Weights = append(res.Weights, serveMix[kind])
	}
	var all, late latencies
	var metricsD, listD []float64
	var tl tally
	var rejected, stale int
	var last time.Time
	for i, a := range sched {
		rec := recs[i]
		switch {
		case a.due < warm:
			continue
		case a.input < 0:
			metricsD = append(metricsD, ms(rec.metrics))
			listD = append(listD, ms(rec.list))
			continue
		}
		tl.add(rec.outcome, rec.err)
		late.add(rec.late)
		all.add(rec.latency)
		switch k := slices.Index(res.Classes, w.inputs[a.input].kind); {
		case k < 0:
		case rec.traced:
			traced[k].add(rec.latency)
		default:
			plain[k].add(rec.latency)
		}
		if rec.outcome == opRejected {
			rejected++
		}
		if rec.stale {
			stale++
		}
		if rec.done.After(last) {
			last = rec.done
		}
	}
	res.Latencies = plain
	res.Elapsed = last.Sub(t0.Add(warm)).Seconds()
	res.PeakConns = int(w.conns.peak.Load())
	tl.into(&res)
	m := res.Layers
	rt.into(m, tl.attempted)
	retained := len(w.stack.engine.Jobs())
	m["jobs.retained"] = float64(retained)
	m["jobs.heap_kb_per_job"] = ratio(m["go.heap_end_mb"]*(1<<20)-float64(w.setupHeap), float64(retained)) / 1024
	m["serve.rejected_ratio"] = ratio(float64(rejected), float64(tl.attempted))
	m["serve.stale_frame_ratio"] = ratio(float64(stale), float64(tl.attempted))
	m["serve.metrics_ms"] = mean(metricsD)
	m["serve.list_ms"] = mean(listD)
	m["loadgen.late_p99_ms"] = late.quantile(0.99)
	if t != nil {
		m["jobs.queue_wait_ms"] = ms(t.meanDur("jobs.queue_wait"))
		for kind := range serveMix {
			m["jobs.run_ms."+kind] = ms(t.meanDur("jobs.run." + kind))
		}
		m["jobs.publish_lag_ms"] = ms(t.meanDur("jobs.publish"))
		m["serve.submit_us"] = us(t.meanDur("serve.submit"))
		m["serve.post_ms"] = ms(t.meanDur("serve.post"))
		traceLayers(t, traced, plain, res.Weights, m)
		// The window's retained jobs would only inflate the ladder's
		// memory; its steps run on fresh servers.
		w.stack.close()
		w.stack = nil
		if m["max_rate_per_s"], err = w.ladder(ctx, all, min(ladderStep, window/2)); err != nil {
			res.Errors, res.Wrong = append(res.Errors, err.Error()), res.Wrong+1
		}
	}
	return res
}

// ladder raises the arrival rate from serveRate in +10% steps of span
// each, every step against a fresh server so that retained
// jobs do not pile up across steps. It returns the highest rate whose
// step kept its p99 latency within the limit, refused or broke no job,
// and built no backlog: the generator's mean lateness in the step's
// second half at most 10 ms above its first half. It returns 0 when the
// base rate already misses the limit.
func (w *serveWork) ladder(ctx context.Context, base latencies, span time.Duration) (float64, error) {
	if base.quantile(0.99) > ms(latencyLimit) {
		return 0, nil
	}
	best, rate := serveRate, serveRate
	for step := range ladderSteps {
		rate *= 1.1
		ok, err := w.ladderStep(ctx, uint64(step), rate, span)
		if err != nil || !ok {
			return best, err
		}
		best = rate
	}
	return best, nil
}

func (w *serveWork) ladderStep(ctx context.Context, step uint64, rate float64, span time.Duration) (bool, error) {
	s, err := w.newStack()
	if err != nil {
		return false, err
	}
	defer s.close()
	sched := schedule(w.seed, w.segment, streamLadder+step, w.weights, rate, span)
	recs, err := w.drive(ctx, s, sched, time.Now(), nil, 0)
	if err != nil {
		return false, err
	}
	var lat, lateA, lateB latencies
	for i, a := range sched {
		if a.input < 0 {
			continue
		}
		r := recs[i]
		if r.outcome == opWrong || r.outcome == opRejected {
			return false, nil
		}
		lat.add(r.latency)
		if a.due < span/2 {
			lateA.add(r.late)
		} else {
			lateB.add(r.late)
		}
	}
	return lat.quantile(0.99) <= ms(latencyLimit) && mean(lateB)-mean(lateA) <= 10, nil
}
