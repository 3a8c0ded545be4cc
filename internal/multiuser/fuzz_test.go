package multiuser

import (
	"os"
	"strings"
	"testing"
)

// FuzzParseSchedule drives arbitrary strings through the schedule
// codec. Schedule strings reach a worker inside leased schedule jobs,
// from outside its process, so parsing must reject bad input, never
// panic, and every accepted schedule must re-render byte-identically:
// the string is the reproduction recipe of a finding.
//
// The seeds are the finding schedules of the committed load smoke
// golden plus the canonical rejection shapes.
func FuzzParseSchedule(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/load/smoke.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if s, ok := strings.CutPrefix(strings.TrimSpace(line), "schedule "); ok {
			f.Add(s)
		}
	}
	for _, seed := range []string{
		"users:3;slots:0,0,1,1,1,2",
		"users:2;slots:",
		"users:01;slots:0",   // rejected: non-canonical user count
		"users:+1;slots:+0",  // rejected: signed numbers
		"users:2;slots:1,00", // rejected: non-canonical slot
		"users:2;slots:2",    // rejected: slot out of range
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchedule(text)
		if err != nil {
			return
		}
		if got := s.String(); got != text {
			t.Fatalf("ParseSchedule accepted %q, which re-renders as %q", text, got)
		}
	})
}
