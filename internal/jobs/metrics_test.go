package jobs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dslab-epfl/warr/internal/apps"
)

func TestWriteMetricsExposesEngineState(t *testing.T) {
	tr := recordScenario(t, apps.AuthenticateScenario())
	e := New(Options{Workers: 3, QueueDepth: 7})
	defer e.Close()
	job, err := e.Submit(Spec{Kind: KindReplay, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)

	var b strings.Builder
	if err := e.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"warr_queue_capacity 7",
		"warr_workers 3",
		"warr_engine_draining 0",
		`warr_jobs_total{kind="replay",state="done"} 1`,
		"warr_replay_sessions_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Every kind×state series exists, even at zero — dashboards never
	// see a series appear out of nowhere.
	for _, k := range []string{"replay", "navigation-campaign", "timing-campaign", "report", "fuzz-campaign", "load-campaign"} {
		for _, s := range States() {
			series := `warr_jobs_total{kind="` + k + `",state="` + s.String() + `"}`
			if !strings.Contains(out, series) {
				t.Errorf("metrics output missing series %s", series)
			}
		}
	}
	if !strings.Contains(out, "warr_replay_steps_total "+itoa(len(tr.Commands))) {
		t.Errorf("steps counter does not reflect the replay: want %d steps in\n%s", len(tr.Commands), out)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestBenchBaselineGauges(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_BASELINE.json")
	content := `{"benchmarks":{"BenchmarkSessionReplay":{"ns/op":123456,"allocs/op":42}}}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline, err := LoadBenchBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if baseline["BenchmarkSessionReplay"]["allocs/op"] != 42 {
		t.Fatalf("parsed baseline %v", baseline)
	}

	e := New(Options{Workers: 1, QueueDepth: 1})
	defer e.Close()
	e.SetBenchBaseline(baseline)
	var b strings.Builder
	if err := e.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`warr_bench_baseline{benchmark="BenchmarkSessionReplay",unit="allocs/op"} 42`,
		`warr_bench_baseline{benchmark="BenchmarkSessionReplay",unit="ns/op"} 123456`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics output missing %q in\n%s", want, b.String())
		}
	}
}

func TestLoadBenchBaselineRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBenchBaseline(path); err == nil {
		t.Error("LoadBenchBaseline accepted garbage")
	}
	if _, err := LoadBenchBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadBenchBaseline accepted a missing file")
	}
}

func TestLoadRepoBenchBaseline(t *testing.T) {
	// The repo's own pinned baseline must stay loadable — warr-serve
	// -bench reads it at boot.
	baseline, err := LoadBenchBaseline("../../BENCH_BASELINE.json")
	if err != nil {
		t.Fatalf("repo BENCH_BASELINE.json unreadable: %v", err)
	}
	if len(baseline) == 0 {
		t.Fatal("repo BENCH_BASELINE.json has no benchmarks")
	}
}
