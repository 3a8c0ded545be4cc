package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for warr-perf when the smoke
// test's parent re-executes itself as a workload child.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "-role") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCorruptedReferenceFailsEveryOp shows the output checks bite: with
// the reference altered, every operation of every workload fails.
func TestCorruptedReferenceFailsEveryOp(t *testing.T) {
	ctx := context.Background()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	const window = 200 * time.Millisecond
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(ctx, name, 1, 0, root)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			switch w := w.(type) {
			case closedRunner:
				switch cw := w.closedWorkload.(type) {
				case *replayWork:
					for i := range cw.ref {
						cw.ref[i].steps++
					}
				case *campaignWork:
					for i := range cw.ref {
						cw.ref[i] += "?"
					}
				}
			case *serveWork:
				for i := range w.inputs {
					w.inputs[i].stored += "?"
				}
			}
			res := w.run(ctx, window, nil)
			if res.Attempted == 0 || res.Wrong != res.Attempted || res.Layers["fail_ratio"] != 1 {
				t.Fatalf("attempted %d, wrong %d, fail_ratio %g; want every op wrong",
					res.Attempted, res.Wrong, res.Layers["fail_ratio"])
			}
		})
	}
}

// TestSmokeEveryWorkload runs each workload for about 300 ms, untraced
// and traced, through the same parent/child path the benchmark command
// takes, and holds the program to BENCHMARK.json: every metric listed
// there is printed, with its unit; no operation fails; the load
// generator never holds more connections than there are cores.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns benchmark children")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	traceDir := t.TempDir()
	for _, name := range workloads {
		for _, mode := range []struct {
			dir     string
			metrics []struct{ Name, Unit string }
		}{{"", spec.EndToEnd}, {traceDir, spec.PerLayer}} {
			out, res, err := measure(name, 1, 300*time.Millisecond, mode.dir)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", name, out.Correct, out.Attempted, out.Failed, res.Errors)
			}
			if len(out.Metrics) != len(mode.metrics) {
				t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", name, len(out.Metrics), len(mode.metrics))
			}
			for _, m := range mode.metrics {
				v, ok := out.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s: metric %s printed as %+v (present %v), want unit %s", name, m.Name, v, ok, m.Unit)
				}
			}
			if res.PeakConns > runtime.NumCPU() {
				t.Errorf("%s: %d client connections open at once, more than %d cores", name, res.PeakConns, runtime.NumCPU())
			}
		}
		if _, err := os.Stat(traceDir + "/" + name + "-seed1.json"); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
}
