package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "op.x", id: 1, start: ms(0), end: ms(100)},
		{name: "a.outer", id: 2, parent: 1, start: ms(10), end: ms(40)},
		{name: "b.overlap", id: 3, parent: 1, start: ms(30), end: ms(60)}, // parallel with a.outer
		{name: "a.inner", id: 4, parent: 2, start: ms(15), end: ms(20)},
		{name: "c.spill", id: 5, parent: 4, start: ms(18), end: ms(25)}, // runs past its parent
	}
	want := []time.Duration{ms(50), ms(25), ms(30), ms(3), ms(7)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerAggregatesAndWritesChromeTrace(t *testing.T) {
	tr := newTracer(1)
	for range 2 {
		o := tr.start("op.x")
		a := o.begin("layer.work", rootSpan)
		time.Sleep(2 * time.Millisecond)
		o.end(a)
		o.count("layer.items", 3)
		o.begin("layer.never_closed", rootSpan)
		tr.finish(o)
		o.count("layer.items", 100) // after finish: ignored
	}
	d, n, c := tr.perOp("layer.work")
	if n != 1 || c != 0 || d < 2*time.Millisecond {
		t.Fatalf("perOp(layer.work) = %v, %g, %g", d, n, c)
	}
	if _, _, c := tr.perOp("layer.items"); c != 3 {
		t.Fatalf("layer.items per op = %g, want 3", c)
	}
	if _, n, _ := tr.perOp("layer.never_closed"); n != 0 {
		t.Fatal("a span left open was aggregated")
	}
	if r := tr.attributedRatio(); r <= 0 || r > 1 {
		t.Fatalf("attributed ratio %g", r)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 2 { // one kept op: root and layer.work
		t.Fatalf("%d events, want 2", len(file.TraceEvents))
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" || ev.Tid != 1 || ev.Dur <= 0 {
			t.Errorf("event %+v", ev)
		}
	}
}

func TestPackLanesNestsSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{start: ms(0), end: ms(100)},
		{start: ms(10), end: ms(50)},
		{start: ms(40), end: ms(70)}, // overlaps the previous without nesting
		{start: ms(60), end: ms(90)},
	}
	got := packLanes(spans)
	want := []int{1, 1, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lanes %v, want %v", got, want)
		}
	}
}
