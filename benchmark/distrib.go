package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/distrib"
)

// workerPoll is warr-worker's default -poll interval. Deployments run
// workers at it, so the benchmark does not tune it: the idle-poll wait
// it causes is part of what a distributed campaign costs.
const workerPoll = 100 * time.Millisecond

// distribWorkers is the worker count, one per core of the reference
// machine.
const distribWorkers = 2

// distribRig is a coordinator pool served over loopback HTTP with
// in-process workers polling it, each through its own HTTP client.
type distribRig struct {
	pool   *distrib.Pool
	srv    *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// cur is the traced operation in flight, nil otherwise.
	cur atomic.Pointer[distOp]
}

// distOp is one traced distribute call as the workers' round trippers
// see it.
type distOp struct {
	o       *opTrace
	parent  int
	start   time.Time
	granted atomic.Bool
}

func newDistribRig(ctx context.Context) (*distribRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &distribRig{pool: distrib.NewPool(distrib.PoolOptions{})}
	r.srv = &http.Server{Handler: r.pool.Handler()}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = r.srv.Serve(ln)
	}()
	wctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for i := range distribWorkers {
		w := distrib.NewWorker(distrib.WorkerOptions{
			Coordinator:  "http://" + ln.Addr().String(),
			ID:           fmt.Sprintf("bench-worker-%d", i+1),
			PollInterval: workerPoll,
			Client: &http.Client{
				Timeout:   30 * time.Second,
				Transport: &wireTripper{rig: r, base: http.DefaultTransport.(*http.Transport).Clone()},
			},
		})
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = w.Run(wctx)
		}()
	}
	tctx, tcancel := context.WithTimeout(ctx, 10*time.Second)
	defer tcancel()
	if err := r.pool.WaitForWorkers(tctx, distribWorkers); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// distribute offers the plan to the pool the way the job engine does,
// executing locally when the pool refuses.
func (r *distribRig) distribute(ctx context.Context, o *opTrace, parent int, exec *campaign.Executor, plan []campaign.Job) []campaign.Outcome {
	if o != nil {
		r.cur.Store(&distOp{o: o, parent: parent, start: time.Now()})
		defer r.cur.Store(nil)
	}
	outs, ok := r.pool.DistributeCampaign(ctx, exec, plan, distSpec)
	if !ok {
		o.count("distrib.fallback", 1)
		outs = exec.Execute(ctx, plan)
	}
	return outs
}

func (r *distribRig) close() {
	r.cancel()
	_ = r.srv.Close()
	r.wg.Wait()
}

// wireEndpoints are the coordinator endpoints a worker calls.
var wireEndpoints = []string{"lease", "image", "complete", "heartbeat"}

func (r *distribRig) layers(t *tracer, m map[string]float64) {
	dist, _, _ := t.perOp("distrib.distribute")
	wait, _, _ := t.perOp("distrib.first_grant_wait")
	_, polls, _ := t.perOp("distrib.wire.lease")
	_, _, idle := t.perOp("distrib.lease_idle")
	_, images, _ := t.perOp("distrib.wire.image")
	_, _, wireBytes := t.perOp("distrib.wire_bytes")
	_, _, fallback := t.perOp("distrib.fallback")
	m["distrib.distribute_ms"] = ms(dist)
	m["distrib.first_grant_wait_ms"] = ms(wait)
	m["distrib.shard_exec_ms"] = ms(t.selfPerOp("distrib.shard_exec"))
	m["distrib.lease_polls"] = polls
	m["distrib.lease_idle_ratio"] = ratio(idle, polls)
	m["distrib.image_fetches"] = images
	m["distrib.wire_kb"] = wireBytes / 1024
	for _, ep := range wireEndpoints {
		d, _, _ := t.perOp("distrib.wire." + ep)
		m["distrib.wire_ms."+ep] = ms(d)
	}
	m["distrib.fallback_ratio"] = fallback
	m["distrib.retries"] = r.poolCounter("warr_retries_total")
	store := r.pool.Store()
	var kb float64
	for _, d := range store.Digests() {
		data, _ := store.Bytes(d)
		kb += float64(len(data)) / 1024
	}
	m["image.store_images"] = float64(store.Len())
	m["image.store_kb"] = kb
}

// poolCounter reads one counter from the pool's /metrics text.
func (r *distribRig) poolCounter(name string) float64 {
	var buf bytes.Buffer
	r.pool.WriteMetrics(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// wireTripper is one worker's HTTP transport, instrumented: during a
// traced operation every request is a distrib.wire.<endpoint> span, and
// the interval from a granted lease to its completion report is a
// distrib.shard_exec span (the image fetch nests inside it).
type wireTripper struct {
	rig  *distribRig
	base http.RoundTripper

	mu      sync.Mutex
	shard   int // open shard_exec span, 0 = none
	shardOp *distOp
}

func (w *wireTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	op := w.rig.cur.Load()
	if op == nil {
		return w.base.RoundTrip(req)
	}
	o := op.o
	endpoint := path.Base(req.URL.Path)
	if strings.Contains(req.URL.Path, "/image/") {
		endpoint = "image"
	}
	parent := op.parent
	w.mu.Lock()
	if w.shardOp == op && w.shard != 0 {
		switch endpoint {
		case "image":
			parent = w.shard
		case "complete":
			o.end(w.shard)
			w.shard = 0
		}
	}
	w.mu.Unlock()

	s := o.begin("distrib.wire."+endpoint, parent)
	sent := float64(max(req.ContentLength, 0))
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		o.end(s)
		return nil, err
	}
	if endpoint != "lease" {
		resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
			o.end(s)
			o.count("distrib.wire_bytes", sent+float64(n))
		}}
		return resp, nil
	}
	// Lease replies are small; read them here to see whether the poll
	// was granted a shard.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end(s)
	if err != nil {
		return nil, err
	}
	o.count("distrib.wire_bytes", sent+float64(len(body)))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var lease struct{ Status string }
	if json.Unmarshal(body, &lease) != nil || lease.Status != distrib.StatusLease {
		o.count("distrib.lease_idle", 1)
		return resp, nil
	}
	now := time.Now()
	if op.granted.CompareAndSwap(false, true) {
		o.record("distrib.first_grant_wait", op.parent, op.start, now)
	}
	w.mu.Lock()
	w.shard, w.shardOp = o.begin("distrib.shard_exec", op.parent), op
	w.mu.Unlock()
	return resp, nil
}

// countingBody counts the bytes read from a response body and reports
// them once, when the body is closed.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingBody) Close() error {
	c.once.Do(func() { c.done(c.n) })
	return c.ReadCloser.Close()
}
