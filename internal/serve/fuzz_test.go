package serve

// Fuzzing the HTTP job-submission decoder: whatever bytes arrive on
// POST /api/jobs, DecodeJobRequest must never panic, and anything it
// accepts must satisfy every invariant the validator promises —
// otherwise a hostile body could reach the engine with an out-of-range
// spec.

import (
	"encoding/json"
	"testing"
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
		// Accepted: every validated invariant must hold.
		if req.kind() == 0 {
			t.Fatalf("accepted unknown kind %q", req.Kind)
		}
		if req.Trace == "" {
			t.Fatal("accepted empty trace")
		}
		switch req.Mode {
		case "", "developer", "user":
		default:
			t.Fatalf("accepted mode %q", req.Mode)
		}
		switch req.Pacing {
		case "", "recorded", "none":
		default:
			t.Fatalf("accepted pacing %q", req.Pacing)
		}
		if req.Replicas < 0 || req.Replicas > 1024 {
			t.Fatalf("accepted replicas %d", req.Replicas)
		}
		if req.Parallelism < 0 || req.Parallelism > 1024 {
			t.Fatalf("accepted parallelism %d", req.Parallelism)
		}
		if req.MaxTraces < 0 {
			t.Fatalf("accepted maxTraces %d", req.MaxTraces)
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
