package multiuser

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/registry"
)

func TestScheduleCodecRoundTrip(t *testing.T) {
	s := Schedule{Users: 3, Slots: []int{0, 1, 0, 2, 1, 2}}
	text := s.String()
	if text != "users:3;slots:0,1,0,2,1,2" {
		t.Fatalf("codec form = %q", text)
	}
	got, err := ParseSchedule(text)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", text, err)
	}
	if got.String() != text {
		t.Fatalf("round trip %q -> %q", text, got.String())
	}
}

func TestParseScheduleRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"slots:0,1",
		"users:0;slots:",
		"users:2;slots:2",  // slot out of range
		"users:2;slots:-1", // negative slot
		"users:x;slots:0",
		"users:2;slots:0,,1",
		"users:01;slots:0",   // non-canonical user count
		"users:+1;slots:+0",  // signed numbers
		"users:2;slots:1,00", // non-canonical slot
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestSequentialIsLinearExtension(t *testing.T) {
	counts := []int{2, 3, 1}
	s := Sequential(counts)
	if err := s.validate(counts); err != nil {
		t.Fatalf("sequential schedule invalid: %v", err)
	}
	if s.String() != "users:3;slots:0,0,1,1,1,2" {
		t.Fatalf("sequential = %q", s.String())
	}
}

func TestExploreSchedulesDeterministicAndValid(t *testing.T) {
	counts := []int{2, 2, 2}
	a := ExploreSchedules(counts, 7, 12)
	b := ExploreSchedules(counts, 7, 12)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d schedules", len(a), len(b))
	}
	seen := make(map[string]bool)
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("same seed diverged at %d: %q vs %q", i, a[i], b[i])
		}
		if err := a[i].validate(counts); err != nil {
			t.Errorf("schedule %q invalid: %v", a[i], err)
		}
		if seen[a[i].String()] {
			t.Errorf("schedule %q duplicated", a[i])
		}
		seen[a[i].String()] = true
	}
	if a[0].String() != Sequential(counts).String() {
		t.Fatalf("first schedule %q is not the sequential base", a[0])
	}
	if len(a) < 2 {
		t.Fatalf("explorer found no perturbed schedules")
	}
}

func TestExploreSchedulesExhaustsSmallSpaces(t *testing.T) {
	// One user, two ops: exactly one linear extension exists.
	got := ExploreSchedules([]int{2}, 1, 50)
	if len(got) != 1 {
		t.Fatalf("single-user world has %d schedules, want 1", len(got))
	}
}

// runWorld executes one schedule of a workload and returns the world.
func runWorld(t *testing.T, name string, n int, s Schedule) *World {
	t.Helper()
	wl, err := LookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(wl, n, browser.DeveloperMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunSchedule(s); err != nil {
		t.Fatal(err)
	}
	for _, u := range w.Users {
		if u.Err != nil {
			t.Fatalf("user %d failed: %v", u.Index, u.Err)
		}
	}
	return w
}

func violationKinds(vs []Violation) []string {
	var kinds []string
	for _, v := range vs {
		kinds = append(kinds, v.Kind)
	}
	return kinds
}

func TestSequentialScheduleIsContentionFree(t *testing.T) {
	for _, name := range []string{"sites-notes", "docs-tally", "yahoo-presence", "mixed"} {
		wl, err := LookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		n := 3
		w := runWorld(t, name, n, Sequential(wl.OpCounts(n)))
		if vs := w.Violations(); len(vs) != 0 {
			t.Errorf("%s: sequential schedule raised %v", name, vs)
		}
	}
}

func TestInterleavedScheduleLosesUpdate(t *testing.T) {
	// Both users render the empty notes list before either saves: the
	// second save overwrites the first user's note.
	w := runWorld(t, "sites-notes", 2, Schedule{Users: 2, Slots: []int{0, 1, 0, 1}})
	vs := w.Violations()
	if len(vs) != 1 || vs[0].Kind != "lost-update" {
		t.Fatalf("violations = %v, want one lost-update", vs)
	}
	st := w.Env.MustState(apps.SitesName).(*apps.Sites)
	if notes := st.Notes(); len(notes) != 1 {
		t.Fatalf("final notes = %v, want exactly the surviving note", notes)
	}
}

func TestInterleavedScheduleReadsStaleTally(t *testing.T) {
	// Both users render tally=0 and bake "+1 -> 1" into the page; both
	// commit 1, so one increment vanishes.
	w := runWorld(t, "docs-tally", 2, Schedule{Users: 2, Slots: []int{0, 1, 0, 1}})
	vs := w.Violations()
	if len(vs) != 1 || vs[0].Kind != "stale-read" {
		t.Fatalf("violations = %v, want one stale-read", vs)
	}
	st := w.Env.MustState(apps.DocsName).(*apps.Docs)
	if st.Tally() != 1 {
		t.Fatalf("tally = %d, want 1 (one lost increment)", st.Tally())
	}
}

func TestInterleavedScheduleCollidesSessions(t *testing.T) {
	// User 1 announces between user 0's hello and read: the portal
	// greets user 0 with user 1's name.
	w := runWorld(t, "yahoo-presence", 2, Schedule{Users: 2, Slots: []int{0, 1, 0, 1}})
	vs := w.Violations()
	if len(vs) != 1 || vs[0].Kind != "session-collision" {
		t.Fatalf("violations = %v, want one session-collision", vs)
	}
}

func TestWorldsAreDeterministic(t *testing.T) {
	s := Schedule{Users: 2, Slots: []int{0, 1, 0, 1}}
	a := runWorld(t, "mixed", 2, s)
	b := runWorld(t, "mixed", 2, s)
	av, bv := a.Violations(), b.Violations()
	if len(av) != len(bv) {
		t.Fatalf("violations diverged: %v vs %v", av, bv)
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("violation %d diverged: %v vs %v", i, av[i], bv[i])
		}
	}
	if a.Coverage().Fingerprint() != b.Coverage().Fingerprint() {
		t.Fatalf("coverage diverged: %s vs %s", a.Coverage().Fingerprint(), b.Coverage().Fingerprint())
	}
}

func TestSessionLaneSeparatesUsers(t *testing.T) {
	// Two users, same server state contributions, but distinct
	// sessions: the session lane must tell a 2-user world from a 1-user
	// world that reached the same app state.
	wl, err := LookupWorkload("yahoo-presence")
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewWorld(wl, 2, browser.DeveloperMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential: user 1 announces last in both worlds, so the
	// app-state lane (lastName) converges; only sessions differ.
	if err := two.RunSchedule(Sequential(wl.OpCounts(2))); err != nil {
		t.Fatal(err)
	}
	st := two.Env.MustState(apps.YahooName).(*apps.Yahoo)
	marks := st.SessionCoverageMarks()
	if len(marks) != 2 {
		t.Fatalf("2-user world has %d session marks, want 2", len(marks))
	}
	if marks[0] == marks[1] {
		t.Fatalf("distinct sessions hashed to the same mark")
	}
}

func TestCampaignFindsContentionOnlyBug(t *testing.T) {
	// The tentpole acceptance check: the interleaving explorer finds
	// the seeded lost-update...
	rep, err := Run(context.Background(), Options{
		Workload: "sites-notes", Users: 2, Cohort: 2, Budget: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == "lost-update" {
			found = true
			if f.Schedule == "" {
				t.Fatalf("finding carries no schedule: %+v", f)
			}
			// The attached schedule must reproduce the finding on its own.
			sched, err := ParseSchedule(f.Schedule)
			if err != nil {
				t.Fatalf("finding schedule %q: %v", f.Schedule, err)
			}
			w := runWorld(t, "sites-notes", sched.Users, sched)
			if kinds := violationKinds(w.Violations()); len(kinds) == 0 || kinds[0] != "lost-update" {
				t.Fatalf("schedule %q did not reproduce: %v", f.Schedule, kinds)
			}
		}
	}
	if !found {
		t.Fatalf("explorer missed the seeded lost-update; findings = %+v", rep.Findings)
	}

	// ...and the equivalent single-user campaign (same users, worlds of
	// one) cannot: no interleaving crosses worlds.
	solo, err := Run(context.Background(), Options{
		Workload: "sites-notes", Users: 2, Cohort: 1, Budget: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Findings) != 0 {
		t.Fatalf("single-user campaign found %+v", solo.Findings)
	}
}

func TestCampaignDeterministicAcrossParallelismAndSharing(t *testing.T) {
	base := Options{Workload: "mixed", Users: 8, Cohort: 4, Budget: 8, Seed: 42}
	var renders []string
	for _, o := range []Options{
		base,
		{Workload: base.Workload, Users: base.Users, Cohort: base.Cohort, Budget: base.Budget, Seed: base.Seed, Parallelism: 8},
		{Workload: base.Workload, Users: base.Users, Cohort: base.Cohort, Budget: base.Budget, Seed: base.Seed, DisableSharing: true},
		{Workload: base.Workload, Users: base.Users, Cohort: base.Cohort, Budget: base.Budget, Seed: base.Seed, Parallelism: 8, DisableSharing: true},
	} {
		rep, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, rep.Render())
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Fatalf("render %d diverged:\n%s\nvs\n%s", i, renders[i], renders[0])
		}
	}
	if !strings.Contains(renders[0], "findings:") {
		t.Fatalf("render missing findings header:\n%s", renders[0])
	}
}

func TestCampaignSharingOnlyChangesCost(t *testing.T) {
	shared, err := Run(context.Background(), Options{
		Workload: "docs-tally", Users: 12, Cohort: 3, Budget: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Run(context.Background(), Options{
		Workload: "docs-tally", Users: 12, Cohort: 3, Budget: 2, Seed: 5, DisableSharing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Render() != flat.Render() {
		t.Fatalf("sharing changed findings:\n%s\nvs\n%s", shared.Render(), flat.Render())
	}
	// 4 worlds cycling 2 schedules: sharing executes 2, flat all 4.
	if shared.Executed >= flat.Executed {
		t.Fatalf("sharing executed %d, flat %d — sharing saved nothing", shared.Executed, flat.Executed)
	}
	if shared.Shared == 0 {
		t.Fatalf("sharing reported no shared worlds")
	}
}

func TestCampaignThroughExecuteHookMatchesLocal(t *testing.T) {
	opts := Options{Workload: "sites-notes", Users: 6, Cohort: 2, Budget: 4, Seed: 9}
	local, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	remoteCalls := 0
	remote := opts
	remote.Execute = func(ctx context.Context, sjobs []ScheduleJob) ([]ScheduleResult, bool) {
		remoteCalls++
		// Return results deliberately out of order: the campaign must
		// reorder by index.
		out := make([]ScheduleResult, 0, len(sjobs))
		for i := len(sjobs) - 1; i >= 0; i-- {
			out = append(out, ExecuteScheduleJob(sjobs[i]))
		}
		return out, true
	}
	dist, err := Run(context.Background(), remote)
	if err != nil {
		t.Fatal(err)
	}
	if remoteCalls == 0 {
		t.Fatalf("execute hook never called")
	}
	if dist.Render() != local.Render() {
		t.Fatalf("distributed findings diverged:\n%s\nvs\n%s", dist.Render(), local.Render())
	}
}

func TestCampaignProgressReachesAllWorlds(t *testing.T) {
	var last Progress
	_, err := Run(context.Background(), Options{
		Workload: "yahoo-presence", Users: 9, Cohort: 3, Budget: 2, Seed: 3,
		OnProgress: func(p Progress) { last = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Worlds != 3 || last.WorldsDone != 3 {
		t.Fatalf("final progress = %+v", last)
	}
	if last.Users != 9 {
		t.Fatalf("progress users = %d", last.Users)
	}
}

func TestWorkloadRegistry(t *testing.T) {
	names := WorkloadNames()
	for _, want := range []string{"sites-notes", "docs-tally", "yahoo-presence", "mixed"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("workload %q not registered (have %v)", want, names)
		}
	}
	if _, err := LookupWorkload("no-such-workload"); err == nil {
		t.Errorf("unknown workload lookup succeeded")
	}
}

// scriptCalls counts the Script calls of the "script-counter" workload:
// one per user of every world built from it.
var (
	scriptCalls     atomic.Int64
	registerOnce    sync.Once
	counterWorkload = "script-counter"
)

func registerScriptCounter(t *testing.T) {
	t.Helper()
	registerOnce.Do(func() {
		err := RegisterWorkload(Workload{
			Name:   counterWorkload,
			Desc:   "one idle user per slot, counting the users built",
			Apps:   func() []registry.App { return []registry.App{apps.SitesApp()} },
			Script: func(u, n int) UserScript { scriptCalls.Add(1); return UserScript{Tag: "idle"} },
			Check:  func(w *World) []Violation { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestScheduleJobCheckedBeforeWorldBuilt: a schedule job's user count
// comes off the wire, so one that disagrees with its schedule, or
// exceeds MaxCohort, is refused before a single user is built; so is a
// campaign whose cohort exceeds MaxCohort.
func TestScheduleJobCheckedBeforeWorldBuilt(t *testing.T) {
	registerScriptCounter(t)
	for _, sj := range []ScheduleJob{
		{Workload: counterWorkload, Users: 2000, Schedule: "users:1;slots:"},
		{Workload: counterWorkload, Users: 1, Schedule: "users:2;slots:"},
		{Workload: counterWorkload, Users: MaxCohort + 1, Schedule: fmt.Sprintf("users:%d;slots:", MaxCohort+1)},
	} {
		scriptCalls.Store(0)
		res := ExecuteScheduleJob(sj)
		if res.Err == "" {
			t.Errorf("%d-user job with schedule %q ran", sj.Users, sj.Schedule)
		}
		if n := scriptCalls.Load(); n != 0 {
			t.Errorf("%d-user job with schedule %q built %d users before it was refused", sj.Users, sj.Schedule, n)
		}
	}
	// So is a campaign asking for worlds above the bound.
	if _, err := Run(context.Background(), Options{Workload: counterWorkload, Users: 2 * MaxCohort, Cohort: MaxCohort + 1}); err == nil {
		t.Errorf("a campaign with cohort %d ran", MaxCohort+1)
	}
	if n := scriptCalls.Load(); n != 0 {
		t.Errorf("a campaign with cohort %d built %d users before it was refused", MaxCohort+1, n)
	}
	// The largest world the bound admits still runs.
	scriptCalls.Store(0)
	sj := ScheduleJob{Workload: counterWorkload, Users: MaxCohort, Schedule: fmt.Sprintf("users:%d;slots:", MaxCohort)}
	if res := ExecuteScheduleJob(sj); res.Err != "" {
		t.Fatalf("%d-user world refused: %s", MaxCohort, res.Err)
	}
	if n := scriptCalls.Load(); n != MaxCohort {
		t.Errorf("a %d-user world built %d users", MaxCohort, n)
	}
}
