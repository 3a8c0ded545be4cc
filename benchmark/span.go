package main

// Spans are recorded by the benchmark itself, around its calls into each
// layer's public functions and at the injection points the API offers
// (env factories, replay hooks, HTTP round trippers and middleware, job
// timestamps). A nil *opTrace records nothing, so untraced operations
// pay one nil check per boundary.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of an operation. Times are offsets from
// the tracer's epoch; parent is the id of the enclosing span (0 = none).
type span struct {
	name       string
	id, parent int
	start, end time.Duration
}

// opTrace collects the spans and counts of one operation. It is safe
// for concurrent use: campaign executors and distrib workers report from
// their own goroutines.
type opTrace struct {
	t *tracer

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	done   bool
}

// begin opens a span and returns its id.
func (o *opTrace) begin(name string, parent int) int {
	if o == nil {
		return 0
	}
	now := o.t.now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.done {
		return 0
	}
	o.spans = append(o.spans, span{name: name, id: len(o.spans) + 1, parent: parent, start: now, end: -1})
	return len(o.spans)
}

// end closes a span opened by begin.
func (o *opTrace) end(id int) {
	if o == nil || id == 0 {
		return
	}
	now := o.t.now()
	o.mu.Lock()
	if !o.done {
		o.spans[id-1].end = now
	}
	o.mu.Unlock()
}

// record adds a span whose bounds were observed elsewhere (job
// timestamps) and returns its id.
func (o *opTrace) record(name string, parent int, start, end time.Time) int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.done {
		return 0
	}
	o.spans = append(o.spans, span{name: name, id: len(o.spans) + 1, parent: parent,
		start: start.Sub(o.t.epoch), end: end.Sub(o.t.epoch)})
	return len(o.spans)
}

// count adds v to a named per-operation counter.
func (o *opTrace) count(name string, v float64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if !o.done {
		o.counts[name] += v
	}
	o.mu.Unlock()
}

// aggregate is the running total of one span name over traced ops.
type aggregate struct {
	n         int
	dur, self time.Duration
}

// tracer aggregates finished operations and keeps the first keep of
// them for the trace-event file.
type tracer struct {
	epoch time.Time
	keep  int

	mu      sync.Mutex
	ops     int
	rootDur time.Duration
	byName  map[string]*aggregate
	layers  map[string]time.Duration // self time by layer
	counts  map[string]float64
	kept    [][]span
}

func newTracer(keep int) *tracer {
	return &tracer{
		epoch:  time.Now(),
		keep:   keep,
		byName: make(map[string]*aggregate),
		layers: make(map[string]time.Duration),
		counts: make(map[string]float64),
	}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// rootSpan is the id of an operation's root span, the first it opens.
const rootSpan = 1

// start opens a traced operation whose root span is named name.
func (t *tracer) start(name string) *opTrace { return t.startAt(name, time.Now()) }

// startAt opens a traced operation whose root span began at at — for an
// open-loop arrival, the moment it was due.
func (t *tracer) startAt(name string, at time.Time) *opTrace {
	o := &opTrace{t: t, counts: make(map[string]float64)}
	o.spans = []span{{name: name, id: rootSpan, start: at.Sub(t.epoch), end: -1}}
	return o
}

// finish closes the operation's root span and folds the operation into
// the aggregates. Spans still open are dropped.
func (t *tracer) finish(o *opTrace) {
	o.end(rootSpan)
	o.mu.Lock()
	o.done = true
	spans := slices.DeleteFunc(o.spans, func(s span) bool { return s.end < s.start })
	counts := o.counts
	o.mu.Unlock()

	self := selfTimes(spans)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	for i, s := range spans {
		a := t.byName[s.name]
		if a == nil {
			a = &aggregate{}
			t.byName[s.name] = a
		}
		a.n++
		a.dur += s.end - s.start
		a.self += self[i]
		t.layers[layerOf(s)] += self[i]
		if s.parent == 0 {
			t.rootDur += s.end - s.start
		}
	}
	for k, v := range counts {
		t.counts[k] += v
	}
	if len(t.kept) < t.keep {
		t.kept = append(t.kept, spans)
	}
}

// layerOf names the layer a span's self time belongs to: the prefix of
// its name, or "op" for a root span.
func layerOf(s span) string {
	if s.parent == 0 {
		return "op"
	}
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Overlapping children (parallel work) count once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return int(a.start - b.start) })
	var total time.Duration
	cur := parent.start
	for _, k := range kids {
		lo, hi := max(k.start, cur), min(k.end, parent.end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// meanDur is the mean duration of spans named name, per span.
func (t *tracer) meanDur(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.byName[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return a.dur / time.Duration(a.n)
}

// perOp returns the total duration of spans named name, the number of
// them, and the sum of counter name — each divided by the number of
// traced operations.
func (t *tracer) perOp(name string) (dur time.Duration, n, count float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ops == 0 {
		return 0, 0, 0
	}
	if a := t.byName[name]; a != nil {
		dur, n = a.dur/time.Duration(t.ops), float64(a.n)/float64(t.ops)
	}
	return dur, n, t.counts[name] / float64(t.ops)
}

// selfPerOp is the total self time of spans named name per traced
// operation.
func (t *tracer) selfPerOp(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.byName[name]
	if a == nil || t.ops == 0 {
		return 0
	}
	return a.self / time.Duration(t.ops)
}

// attributedRatio is the share of root-span time covered by layer
// spans: the sum of every layer's self time over the roots' duration.
func (t *tracer) attributedRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var layers time.Duration
	for layer, d := range t.layers {
		if layer != "op" {
			layers += d
		}
	}
	return ratio(float64(layers), float64(t.rootDur))
}

// writeChrome writes the kept operations as a Chrome trace-event file,
// which Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	var all []span
	for i, spans := range t.kept {
		for _, s := range spans {
			// Ids are per operation; make them unique for lane packing.
			s.id += i << 20
			if s.parent != 0 {
				s.parent += i << 20
			}
			all = append(all, s)
		}
	}
	t.mu.Unlock()

	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args,omitempty"`
	}
	lanes := packLanes(all)
	events := make([]event, len(all))
	for i, s := range all {
		events[i] = event{
			Name: s.name, Cat: layerOf(s), Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: lanes[i],
			Args: map[string]int{"op": s.id >> 20},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// packLanes assigns each span a lane (trace-event thread id) such that
// spans sharing a lane nest properly, which trace viewers require.
func packLanes(spans []span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if spans[a].start != spans[b].start {
			return int(spans[a].start - spans[b].start)
		}
		return int(spans[b].end - spans[a].end) // enclosing span first
	})
	var stacks [][]span
	lanes := make([]int, len(spans))
	for _, i := range order {
		s := spans[i]
		lane := -1
		for l := range stacks {
			st := stacks[l]
			for len(st) > 0 && st[len(st)-1].end <= s.start {
				st = st[:len(st)-1]
			}
			stacks[l] = st
			if len(st) == 0 || st[len(st)-1].end >= s.end {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(stacks)
			stacks = append(stacks, nil)
		}
		stacks[lane] = append(stacks[lane], s)
		lanes[i] = lane + 1
	}
	return lanes
}
