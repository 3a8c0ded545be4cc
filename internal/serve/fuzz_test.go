package serve

// Fuzzing the HTTP job-submission decoder: whatever bytes arrive on
// POST /api/jobs, DecodeJobRequest must never panic, and anything it
// accepts must resolve to a spec jobs.Spec.Validate passes — otherwise
// a hostile body could reach the engine with an out-of-range spec.

import (
	"encoding/json"
	"testing"

	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/trace"
)

func FuzzDecodeJobRequest(f *testing.F) {
	seeds := []string{
		`{"kind":"replay","trace":"authenticate"}`,
		`{"kind":"navigation-campaign","trace":"edit-site","parallelism":8,"maxTraces":100}`,
		`{"kind":"timing-campaign","trace":"compose","pacing":"none"}`,
		`{"kind":"report","trace":"report","description":"it broke"}`,
		`{"kind":"replay","trace":"t","mode":"user","replicas":4}`,
		`{"kind":"replay","trace":"t","disablePruning":true,"disablePrefixSharing":true}`,
		`{"kind":"replay"}`,
		`{"trace":"t"}`,
		`{"kind":"martian","trace":"t"}`,
		`{"kind":"replay","trace":"t","replicas":-1}`,
		`{"kind":"replay","trace":"t","replicas":99999}`,
		`{"kind":"replay","trace":"t","mode":"root"}`,
		`{"kind":"replay","trace":"t","extra":"field"}`,
		`{"kind":"replay","trace":"t"}{"kind":"replay","trace":"t"}`,
		`[]`,
		`null`,
		`{`,
		``,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeJobRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("error with a non-nil request")
			}
			return
		}
		// Accepted: once its trace is uploaded, the request resolves to
		// a spec the engine's one validator passes.
		s := &Server{traces: make(map[string]StoredTrace)}
		if req.Trace != "" {
			s.AddTrace(req.Trace, trace.Header{}, command.Trace{StartURL: "https://sites.test/"})
		}
		spec, err := s.specFor(req)
		if err != nil {
			if req.Trace == "" {
				return // a trace kind naming no trace: resolution's 400
			}
			t.Fatalf("accepted request does not resolve: %v", err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted request resolves to an invalid spec: %v", err)
		}
		// An accepted request re-marshals losslessly — the wire shape is
		// closed under decode/encode.
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		again, err := DecodeJobRequest(out)
		if err != nil {
			t.Fatalf("re-marshaled request rejected: %v", err)
		}
		if *again != *req {
			t.Fatalf("decode/encode not stable: %+v vs %+v", req, again)
		}
	})
}
