package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/replayer"
	"github.com/dslab-epfl/warr/internal/webdriver"
)

// pinTrace is a fixed two-command trace for the journal byte pins.
var pinTrace = command.Trace{
	StartURL: "http://sites.test/",
	Commands: []command.Command{
		{Action: command.Click, XPath: `//div[@id="edit"]`, X: 3, Y: 4, Elapsed: 120},
		{Action: command.Type, XPath: `//textarea[@name="body"]`, Key: "H", Code: 72, Elapsed: 80},
	},
}

// pinSpecs is one fixed spec per job kind, each setting the fields its
// kind reads to non-zero values.
var pinSpecs = []Spec{
	{Kind: KindReplay, Trace: pinTrace, TraceName: "edit", Mode: browser.UserMode, Replicas: 3,
		Replayer: replayer.Options{Pacing: replayer.PaceNone, DisableRelaxation: true, DisableCoordinateFallback: true,
			Driver: webdriver.Options{LegacyTextInput: true, DisableUnloadFix: true}}},
	{Kind: KindNavigationCampaign, Trace: pinTrace, TraceName: "edit", Parallelism: 2, MaxTraces: 5,
		DisablePruning: true, DisablePrefixSharing: true},
	{Kind: KindTimingCampaign, Trace: pinTrace, Parallelism: 2, Replayer: replayer.Options{Pacing: replayer.PaceRecorded}},
	{Kind: KindReport, Trace: pinTrace, Description: "the \"save\" button <does> nothing"},
	{Kind: KindFuzzCampaign, Trace: pinTrace, FuzzBudget: 8, FuzzSeed: -7, Parallelism: 2},
	{Kind: KindLoadCampaign, Workload: "sites-notes", Users: 8, Cohort: 2, ScheduleBudget: 4, ScheduleSeed: 1,
		Duration: 10 * time.Minute, DisableLoadSharing: true, Parallelism: 2},
}

// pinSubmitLines are the submit records pinSpecs journal as, captured
// from the build that introduced the journal pins.
var pinSubmitLines = []string{
	`{"rec":"submit","job":"job-1","spec":{"kind":"replay","trace":{"StartURL":"http://sites.test/","Commands":[{"Action":1,"XPath":"//div[@id=\"edit\"]","X":3,"Y":4,"DX":0,"DY":0,"Key":"","Code":0,"Elapsed":120},{"Action":4,"XPath":"//textarea[@name=\"body\"]","X":0,"Y":0,"DX":0,"DY":0,"Key":"H","Code":72,"Elapsed":80}]},"traceName":"edit","mode":1,"replayer":{"pacing":2,"disableRelaxation":true,"disableCoordinateFallback":true,"driver":{"DisableDoubleClickFix":false,"LegacyTextInput":true,"DisableSrclessIframeFix":false,"DisableUnloadFix":true}},"replicas":3}}`,
	`{"rec":"submit","job":"job-2","spec":{"kind":"navigation-campaign","trace":{"StartURL":"http://sites.test/","Commands":[{"Action":1,"XPath":"//div[@id=\"edit\"]","X":3,"Y":4,"DX":0,"DY":0,"Key":"","Code":0,"Elapsed":120},{"Action":4,"XPath":"//textarea[@name=\"body\"]","X":0,"Y":0,"DX":0,"DY":0,"Key":"H","Code":72,"Elapsed":80}]},"traceName":"edit","mode":2,"replayer":{"pacing":0,"driver":{"DisableDoubleClickFix":false,"LegacyTextInput":false,"DisableSrclessIframeFix":false,"DisableUnloadFix":false}},"parallelism":2,"maxTraces":5,"disablePruning":true,"disablePrefixSharing":true}}`,
	`{"rec":"submit","job":"job-3","spec":{"kind":"timing-campaign","trace":{"StartURL":"http://sites.test/","Commands":[{"Action":1,"XPath":"//div[@id=\"edit\"]","X":3,"Y":4,"DX":0,"DY":0,"Key":"","Code":0,"Elapsed":120},{"Action":4,"XPath":"//textarea[@name=\"body\"]","X":0,"Y":0,"DX":0,"DY":0,"Key":"H","Code":72,"Elapsed":80}]},"mode":2,"replayer":{"pacing":1,"driver":{"DisableDoubleClickFix":false,"LegacyTextInput":false,"DisableSrclessIframeFix":false,"DisableUnloadFix":false}},"parallelism":2}}`,
	`{"rec":"submit","job":"job-4","spec":{"kind":"report","trace":{"StartURL":"http://sites.test/","Commands":[{"Action":1,"XPath":"//div[@id=\"edit\"]","X":3,"Y":4,"DX":0,"DY":0,"Key":"","Code":0,"Elapsed":120},{"Action":4,"XPath":"//textarea[@name=\"body\"]","X":0,"Y":0,"DX":0,"DY":0,"Key":"H","Code":72,"Elapsed":80}]},"mode":2,"replayer":{"pacing":0,"driver":{"DisableDoubleClickFix":false,"LegacyTextInput":false,"DisableSrclessIframeFix":false,"DisableUnloadFix":false}},"description":"the \"save\" button \u003cdoes\u003e nothing"}}`,
	`{"rec":"submit","job":"job-5","spec":{"kind":"fuzz-campaign","trace":{"StartURL":"http://sites.test/","Commands":[{"Action":1,"XPath":"//div[@id=\"edit\"]","X":3,"Y":4,"DX":0,"DY":0,"Key":"","Code":0,"Elapsed":120},{"Action":4,"XPath":"//textarea[@name=\"body\"]","X":0,"Y":0,"DX":0,"DY":0,"Key":"H","Code":72,"Elapsed":80}]},"mode":2,"replayer":{"pacing":0,"driver":{"DisableDoubleClickFix":false,"LegacyTextInput":false,"DisableSrclessIframeFix":false,"DisableUnloadFix":false}},"parallelism":2,"fuzzBudget":8,"fuzzSeed":-7}}`,
	`{"rec":"submit","job":"job-6","spec":{"kind":"load-campaign","trace":{"StartURL":"","Commands":null},"mode":2,"replayer":{"pacing":0,"driver":{"DisableDoubleClickFix":false,"LegacyTextInput":false,"DisableSrclessIframeFix":false,"DisableUnloadFix":false}},"parallelism":2,"workload":"sites-notes","users":8,"cohort":2,"scheduleBudget":4,"scheduleSeed":1,"durationNanos":600000000000,"disableLoadSharing":true}}`,
}

// TestJournalSubmitBytes pins the submit record Engine.enqueue writes
// for one fixed spec of every kind, byte for byte: a journal written by
// one build must read the same in every other.
func TestJournalSubmitBytes(t *testing.T) {
	want := pinSubmitLines
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, err := OpenJournal(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1, QueueDepth: len(pinSpecs), Journal: j})
	for _, spec := range pinSpecs {
		if _, err := e.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"rec":"submit"`)) {
			got = append(got, string(line))
		}
	}
	if len(got) != len(want) {
		for _, g := range got {
			t.Logf("%#q", g)
		}
		t.Fatalf("journal holds %d submit records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s submit record:\n got %s\nwant %s", pinSpecs[i].Kind, got[i], want[i])
		}
	}
}

// journalSeeds are journal contents for FuzzJournalOpen and the file
// round trip: whole, drain-cancelled and torn pinned submits, an unknown
// kind revived in its own epoch, and out-of-range bounds.
func journalSeeds() [][]byte {
	seeds := [][]byte{[]byte(`{"rec":"boot"}` + "\n" + strings.Join(pinSubmitLines, "\n") + "\n")}
	for _, line := range pinSubmitLines {
		seeds = append(seeds,
			[]byte(`{"rec":"boot"}`+"\n"+line+"\n"+`{"rec":"state","job":"job-1","state":"cancelled","cause":"jobs: checkpointed by engine drain"}`+"\n"),
			[]byte(line[:len(line)/2]))
	}
	return append(seeds,
		[]byte(`{"rec":"boot"}`+"\n"+`{"rec":"submit","job":"job-1","spec":{"kind":"unheard-of"}}`+"\n"+`{"rec":"revived","ofEpoch":1,"job":"job-1"}`+"\n"),
		[]byte(`{"rec":"boot"}`+"\n"+`{"rec":"submit","job":"job-1","spec":{"kind":"load-campaign","workload":"sites-notes","users":4000000,"cohort":65,"parallelism":5000,"mode":9}}`+"\n"))
}

// wellFormedPrefix is the length of the longest prefix of data made of
// complete record lines that decode.
func wellFormedPrefix(data []byte) int {
	good := 0
	for good < len(data) {
		nl := bytes.IndexByte(data[good:], '\n')
		var rec journalRecord
		if nl < 0 || json.Unmarshal(data[good:good+nl], &rec) != nil {
			break
		}
		good += nl + 1
	}
	return good
}

// FuzzJournalOpen: the journal reader decodes bytes from outside the
// process, so for any contents the recovery OpenJournal runs
// (scanJournal) must not panic, must keep exactly the longest prefix of
// well-formed record lines, and must recover only specs whose JSON
// round trips and that Validate can judge. It fuzzes the bytes with no
// file in between; TestJournalOpenRoundTrip covers the file.
func FuzzJournalOpen(f *testing.F) {
	for _, seed := range journalSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recovered, good, _ := scanJournal(data, func(string, ...any) {})
		if want := wellFormedPrefix(data); good != int64(want) {
			t.Fatalf("scanJournal kept %d bytes, want the %d-byte well-formed prefix", good, want)
		}
		for _, rj := range recovered {
			b, err := json.Marshal(rj.Spec)
			if err != nil {
				t.Fatalf("re-marshalling recovered %s: %v", rj.ID, err)
			}
			var back Spec
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("decoding re-marshalled %s: %v", rj.ID, err)
			}
			if !reflect.DeepEqual(back, rj.Spec) {
				t.Fatalf("recovered %s does not round trip:\n got %+v\nwant %+v", rj.ID, back, rj.Spec)
			}
			// Revival validates every recovered spec: whatever the bytes,
			// that check answers and never panics.
			_ = rj.Spec.Validate()
		}
	})
}

// TestJournalOpenRoundTrip opens a journal file holding each seed:
// OpenJournal truncates the torn tail, appends exactly one boot record,
// and recovers what scanJournal recovers from the bytes.
func TestJournalOpenRoundTrip(t *testing.T) {
	for i, data := range journalSeeds() {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recovered, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		good := wellFormedPrefix(data)
		if want := string(data[:good]) + `{"rec":"boot"}` + "\n"; string(after) != want {
			t.Fatalf("seed %d: journal after open:\n%q\nwant the %d-byte well-formed prefix plus one boot record:\n%q", i, after, good, want)
		}
		want, _, epoch := scanJournal(data, func(string, ...any) {})
		if !reflect.DeepEqual(recovered, want) {
			t.Errorf("seed %d: OpenJournal recovered %+v, scanJournal %+v", i, recovered, want)
		}
		if j.Epoch() != epoch+1 {
			t.Errorf("seed %d: journal epoch %d after %d boot records, want %d", i, j.Epoch(), epoch, epoch+1)
		}
	}
}
