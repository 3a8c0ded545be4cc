package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"drop:lease/1",
		"drop:heartbeat/4096",
		"delay:lease/50ms",
		"delay:complete/1.5s",
		"corrupt:complete/1",
		"corrupt:lease/2",
		"crash:worker1@shard3",
		"crash:chaos-a.1_x@shard1",
		"drop:lease/2;delay:heartbeat/50ms;crash:worker1@shard3;corrupt:complete/1",
	}
	for _, s := range cases {
		sched, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if got := sched.String(); got != s {
			t.Errorf("round trip changed %q -> %q", s, got)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		"",
		"id",                // errmodel's identity, not ours
		"drop:lease/0",      // ordinals are 1-based
		"drop:lease/+1",     // non-canonical number
		"drop:lease/007",    // non-canonical number
		"drop:lease/4097",   // over MaxOrdinal
		"drop:queue/1",      // unknown path
		"delay:image/50ms",  // retired path: no coordinator serves images
		"corrupt:image/1",   // retired path
		"drop:lease",        // missing ordinal
		"delay:lease/0s",    // non-positive delay
		"delay:lease/11s",   // over MaxDelay
		"delay:lease/0.05s", // non-canonical duration (50ms)
		"delay:lease/50",    // unitless duration
		"crash:@shard1",     // empty worker
		"crash:w1",          // missing @shardN
		"crash:w;x@shard1",  // metacharacter in name (split first)
		"crash:a b@shard1",  // space in name
		"crash:" + strings.Repeat("w", 65) + "@shard1", // overlong name
		"explode:lease/1", // unknown op
		strings.Repeat("drop:lease/1;", MaxOps) + "drop:lease/1", // overlong schedule
	}
	for _, s := range cases {
		if sched, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted: %v", s, sched)
		}
	}
}

func TestInjectorOrdinalsAreDeterministic(t *testing.T) {
	sched, err := Parse("drop:lease/2;corrupt:heartbeat/1;delay:complete/1ms")
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		in := NewInjector(sched, nil)
		if act := in.Request(PathLease); !act.Zero() {
			t.Fatalf("run %d: 1st lease request got %+v, want nothing", run, act)
		}
		if act := in.Request(PathLease); !act.Drop {
			t.Fatalf("run %d: 2nd lease request not dropped", run)
		}
		if act := in.Request(PathLease); !act.Zero() {
			t.Fatalf("run %d: 3rd lease request got %+v, want nothing", run, act)
		}
		if act := in.Request(PathHeartbeat); !act.Corrupt {
			t.Fatalf("run %d: 1st heartbeat request not corrupted", run)
		}
		if act := in.Request(PathComplete); time.Duration(act.Delay) != time.Millisecond {
			t.Fatalf("run %d: complete delay = %v, want 1ms", run, time.Duration(act.Delay))
		}
		if got := in.Total(); got != 3 {
			t.Fatalf("run %d: Total = %d, want 3", run, got)
		}
		fired := in.Fired()
		if fired["drop"] != 1 || fired["corrupt"] != 1 || fired["delay"] != 1 {
			t.Fatalf("run %d: Fired = %v", run, fired)
		}
	}
}

func TestInjectorCrashOnGrant(t *testing.T) {
	sched, err := Parse("crash:w1@shard2")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(sched, nil)
	if in.OnGrant("w1") {
		t.Fatal("crashed on 1st grant, want 2nd")
	}
	if in.OnGrant("w2") {
		t.Fatal("crashed the wrong worker")
	}
	if !in.OnGrant("w1") {
		t.Fatal("did not crash on w1's 2nd grant")
	}
	if in.OnGrant("w1") {
		t.Fatal("crashed again on w1's 3rd grant")
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if act := in.Request(PathLease); !act.Zero() {
		t.Fatalf("nil injector returned %+v", act)
	}
	if in.OnGrant("w") {
		t.Fatal("nil injector crashed a worker")
	}
	if in.Total() != 0 || in.Fired() != nil || in.Schedule() != nil {
		t.Fatal("nil injector reported injections")
	}
}

func TestGenerateRoundTripsAndReproduces(t *testing.T) {
	workers := []string{"w1", "w2", "w3"}
	for seed := int64(0); seed < 64; seed++ {
		sched := Generate(seed, GenOptions{Workers: workers})
		if len(sched) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		s := sched.String()
		again := Generate(seed, GenOptions{Workers: workers})
		if again.String() != s {
			t.Fatalf("seed %d not reproducible: %q vs %q", seed, s, again.String())
		}
		parsed, err := Parse(s)
		if err != nil {
			t.Fatalf("seed %d: generated schedule %q does not parse: %v", seed, s, err)
		}
		if parsed.String() != s {
			t.Fatalf("seed %d: round trip changed %q -> %q", seed, s, parsed.String())
		}
	}
	// Without workers, no crash ops appear (a client-side transport
	// cannot observe lease grants).
	for seed := int64(0); seed < 64; seed++ {
		for _, op := range Generate(seed, GenOptions{}) {
			if _, ok := op.(Crash); ok {
				t.Fatalf("seed %d generated a crash op with no workers", seed)
			}
		}
	}
}

func TestTransportInjects(t *testing.T) {
	var served int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		io.WriteString(w, "payload-bytes")
	}))
	defer ts.Close()

	sched, err := Parse("drop:lease/1;corrupt:lease/3;delay:heartbeat/1ms")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(sched, nil)
	client := &http.Client{Transport: &Transport{Injector: in}}

	// Dropped: the server never sees the request.
	_, err = client.Get(ts.URL + "/api/distrib/lease")
	var fe *Error
	if !errors.As(err, &fe) || fe.Path != PathLease {
		t.Fatalf("dropped lease request returned %v, want *faults.Error", err)
	}
	if served != 0 {
		t.Fatalf("dropped request reached the server")
	}
	// Second lease request passes through.
	resp, err := client.Get(ts.URL + "/api/distrib/lease")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Corrupted: a lease poll sends no body, so its reply takes the hit.
	resp, err = client.Post(ts.URL+"/api/distrib/lease", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) == "payload-bytes" {
		t.Fatal("corrupted lease reply arrived intact")
	}
	if len(body) != len("payload-bytes") {
		t.Fatalf("corruption changed the body length: %d", len(body))
	}

	// Delayed but served.
	start := time.Now()
	resp, err = client.Post(ts.URL+"/api/distrib/heartbeat", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if time.Since(start) < time.Millisecond {
		t.Fatal("heartbeat was not delayed")
	}

	// Unclassified paths pass through untouched.
	resp, err = client.Get(ts.URL + "/api/jobs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "payload-bytes" {
		t.Fatalf("unclassified request body altered: %q", body)
	}
}
