package multiuser

// The load campaign: scale a workload to Users virtual users by
// hosting them in worlds of Cohort users each, explore interleavings
// per world size, and aggregate interference findings.
//
// Determinism contract: for a fixed (workload, users, cohort, budget,
// seed, gap, mode), the Report's findings — and Render()'s bytes — are
// identical at any Parallelism, with sharing on or off, and whether
// schedules execute locally or through a distributor. The plan is
// computed up front from the seed alone, every schedule execution is
// single-goroutine deterministic, and results are absorbed in world
// index order regardless of completion order. Sharing and parallelism
// only change how much work runs, never what it computes — the same
// ablation shape as the campaign executor's prefix sharing.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/errmodel"
)

// DefaultCohort is how many users share one world when the caller does
// not say: small enough that schedule spaces stay explorable, large
// enough that every pairwise interference class can fire.
const DefaultCohort = 4

// MaxCohort is the most users one world may hold. A world costs a
// browser and a tab per user, and its size can come off the wire (a job
// spec, a lease), so the bound sits far above any useful cohort but
// keeps one world's cost finite.
const MaxCohort = 64

// DefaultScheduleBudget is how many schedules the explorer tries per
// world size when the caller does not say.
const DefaultScheduleBudget = 16

// Options configures a load campaign.
type Options struct {
	// Workload names the registered workload to run.
	Workload string
	// Users is the total number of virtual users (default DefaultCohort).
	Users int
	// Cohort is how many users share one world (default DefaultCohort,
	// capped at Users).
	Cohort int
	// Budget is the schedule budget per world size (default
	// DefaultScheduleBudget).
	Budget int
	// Seed drives the interleaving explorer; same seed, same schedules.
	Seed int64
	// Duration, when set, is each world's virtual time budget: the
	// slot gap becomes Duration/slots (floored at the AJAX-safe
	// registry.ActionGap). 0 means registry.ActionGap per slot.
	Duration time.Duration
	// Mode is the browser build (zero = DeveloperMode).
	Mode browser.Mode
	// Parallelism is how many schedules execute concurrently (0 or 1 =
	// sequential).
	Parallelism int
	// DisableSharing turns off schedule-result sharing: every world
	// executes its schedule even when an identical world+schedule
	// already ran — the ablation proving sharing changes cost, not
	// findings.
	DisableSharing bool
	// Execute, when set, runs the deduplicated schedule jobs remotely
	// (the distrib hook). Returning ok=false falls back to local
	// execution.
	Execute func(ctx context.Context, sjobs []ScheduleJob) ([]ScheduleResult, bool)
	// OnProgress, when set, observes campaign progress (serially).
	OnProgress func(p Progress)
}

// ScheduleJob is one deduplicated world execution, wire-safe for
// distributed workers.
type ScheduleJob struct {
	// Index identifies the job in results.
	Index int `json:"index"`
	// Workload names the workload to build the world from.
	Workload string `json:"workload"`
	// Users is the world's cohort size.
	Users int `json:"users"`
	// Schedule is the interleaving in codec form.
	Schedule string `json:"schedule"`
	// Mode is the browser build.
	Mode browser.Mode `json:"mode"`
	// GapNanos is the virtual slot gap.
	GapNanos int64 `json:"gapNanos"`
}

// ScheduleResult is one executed schedule's outcome.
type ScheduleResult struct {
	// Index echoes the job index.
	Index int `json:"index"`
	// Violations are the interference findings of this world.
	Violations []Violation `json:"violations,omitempty"`
	// Coverage is the world's coverage bitmap (errmodel.BitmapSize
	// bytes).
	Coverage []byte `json:"coverage,omitempty"`
	// Err reports a world construction or schedule failure.
	Err string `json:"err,omitempty"`
}

// ExecuteScheduleJob runs one schedule job locally — the single
// building block both the in-process campaign and distributed workers
// call.
func ExecuteScheduleJob(sj ScheduleJob) ScheduleResult {
	res := ScheduleResult{Index: sj.Index}
	wl, err := LookupWorkload(sj.Workload)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	sched, err := ParseSchedule(sj.Schedule)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	// Both counts may come off the wire: check them before NewWorld
	// builds a browser per user.
	if sj.Users != sched.Users || sj.Users > MaxCohort {
		res.Err = fmt.Sprintf("multiuser: job for a %d-user world runs a %d-user schedule (at most %d users per world)", sj.Users, sched.Users, MaxCohort)
		return res
	}
	w, err := NewWorld(wl, sj.Users, sj.Mode, time.Duration(sj.GapNanos))
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if err := w.RunSchedule(sched); err != nil {
		res.Err = err.Error()
		return res
	}
	res.Violations = w.Violations()
	res.Coverage = w.Coverage().Bytes()
	return res
}

// Progress is one campaign progress observation.
type Progress struct {
	// Users is the campaign's total virtual users.
	Users int
	// Worlds is the total world count; WorldsDone how many are absorbed.
	Worlds     int
	WorldsDone int
	// Executed counts schedules actually run; Shared counts world
	// assignments served from an already-executed identical schedule.
	Executed int
	Shared   int
}

// Finding is one aggregated interference finding.
type Finding struct {
	// Kind is the violation kind ("lost-update", "stale-read",
	// "session-collision", "op-error").
	Kind string `json:"kind"`
	// Detail is the violation detail.
	Detail string `json:"detail"`
	// Schedule is the first schedule (codec form) that surfaced it —
	// the reproduction recipe.
	Schedule string `json:"schedule"`
	// Worlds counts how many worlds reproduced it.
	Worlds int `json:"worlds"`
}

// Report is a finished load campaign.
type Report struct {
	Workload string `json:"workload"`
	Users    int    `json:"users"`
	Cohort   int    `json:"cohort"`
	Worlds   int    `json:"worlds"`
	Budget   int    `json:"budget"`
	Seed     int64  `json:"seed"`
	// Executed and Shared describe cost, not outcome: they vary with
	// the sharing ablation and are deliberately absent from Render.
	Executed int `json:"executed"`
	Shared   int `json:"shared"`
	// CoverageBits is the population count of the merged coverage
	// bitmap.
	CoverageBits int `json:"coverageBits"`
	// Findings are the aggregated violations, in kind+detail order.
	Findings []Finding `json:"findings"`
}

// Render prints the canonical findings report. It includes only
// determinism-covered fields — same bytes at any parallelism, sharing
// mode, and execution placement for a fixed seed.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load campaign: workload=%s users=%d cohort=%d worlds=%d budget=%d seed=%d\n",
		r.Workload, r.Users, r.Cohort, r.Worlds, r.Budget, r.Seed)
	fmt.Fprintf(&b, "coverage: %d bits\n", r.CoverageBits)
	fmt.Fprintf(&b, "findings: %d\n", len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  [%s] %s (worlds: %d)\n    schedule %s\n", f.Kind, f.Detail, f.Worlds, f.Schedule)
	}
	return b.String()
}

// worldPlan is the campaign's precomputed shape: per-world sizes and
// schedule lists, all derived from the options alone.
type worldPlan struct {
	sizes []int // world i's cohort size
	// scheds maps a world size to its explored schedule list.
	scheds map[int][]Schedule
	// unique holds the deduplicated (size, schedule) executions; every
	// world of a size absorbs all of that size's jobs.
	unique []ScheduleJob
	// jobsOf maps world index -> unique job indices, in schedule order.
	jobsOf [][]int
}

// plan lays the campaign out: split Users into worlds of Cohort,
// explore up to Budget schedules per distinct world size, and run each
// world under every schedule of its size — deduplicating identical
// (size, schedule) executions, which is what makes a million-user
// campaign cost a handful of world runs.
func plan(wl Workload, o Options) worldPlan {
	p := worldPlan{scheds: make(map[int][]Schedule)}
	users := o.Users
	for users > 0 {
		n := o.Cohort
		if n > users {
			n = users
		}
		p.sizes = append(p.sizes, n)
		users -= n
	}
	jobsBySize := make(map[int][]int)
	for _, n := range p.sizes {
		jobs, ok := jobsBySize[n]
		if !ok {
			scheds := ExploreSchedules(wl.OpCounts(n), o.Seed, o.Budget)
			p.scheds[n] = scheds
			for _, s := range scheds {
				jobs = append(jobs, len(p.unique))
				p.unique = append(p.unique, ScheduleJob{
					Index:    len(p.unique),
					Workload: wl.Name,
					Users:    n,
					Schedule: s.String(),
					Mode:     o.Mode,
					GapNanos: int64(gapFor(o, len(s.Slots))),
				})
			}
			jobsBySize[n] = jobs
		}
		p.jobsOf = append(p.jobsOf, jobs)
	}
	return p
}

// gapFor is the virtual slot gap: Duration spread across the world's
// slots, floored at the AJAX-safe default.
func gapFor(o Options, slots int) time.Duration {
	if o.Duration <= 0 || slots == 0 {
		return 0 // NewWorld applies registry.ActionGap
	}
	gap := o.Duration / time.Duration(slots)
	if gap < 1 {
		gap = 1
	}
	return gap
}

// Run executes the load campaign.
func Run(ctx context.Context, o Options) (*Report, error) {
	if o.Users < 1 {
		o.Users = DefaultCohort
	}
	if o.Cohort < 1 {
		o.Cohort = DefaultCohort
	}
	if o.Cohort > o.Users {
		o.Cohort = o.Users
	}
	if o.Cohort > MaxCohort {
		return nil, fmt.Errorf("multiuser: cohort %d above %d users per world", o.Cohort, MaxCohort)
	}
	if o.Budget < 1 {
		o.Budget = DefaultScheduleBudget
	}
	wl, err := LookupWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	p := plan(wl, o)

	// Execute the unique jobs: a distributor if offered, else locally.
	// With sharing disabled every world executes its own copies — same
	// inputs, same deterministic outputs, more cost.
	jobs := p.unique
	if o.DisableSharing {
		jobs = nil
		for _, worldJobs := range p.jobsOf {
			for _, ji := range worldJobs {
				j := p.unique[ji]
				j.Index = len(jobs)
				jobs = append(jobs, j)
			}
		}
	}
	results, err := executeJobs(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	// resultsOf returns world wi's results under either sharing mode.
	flatNext := 0
	resultsOf := func(wi int) []ScheduleResult {
		out := make([]ScheduleResult, 0, len(p.jobsOf[wi]))
		for _, ji := range p.jobsOf[wi] {
			if o.DisableSharing {
				out = append(out, results[flatNext])
				flatNext++
			} else {
				out = append(out, results[ji])
			}
		}
		return out
	}

	rep := &Report{
		Workload: wl.Name,
		Users:    o.Users,
		Cohort:   o.Cohort,
		Worlds:   len(p.sizes),
		Budget:   o.Budget,
		Seed:     o.Seed,
		Executed: len(jobs),
	}
	if !o.DisableSharing {
		for _, worldJobs := range p.jobsOf {
			rep.Shared += len(worldJobs)
		}
		rep.Shared -= len(p.unique)
	}

	// Absorb in world index order — completion order never shows.
	var cov errmodel.Bitmap
	byKey := make(map[string]*Finding)
	var order []string
	for wi := range p.sizes {
		worldSeen := make(map[string]bool)
		for si, res := range resultsOf(wi) {
			sched := p.scheds[p.sizes[wi]][si]
			if res.Err != "" {
				return nil, fmt.Errorf("multiuser: world %d schedule %s: %s", wi, sched, res.Err)
			}
			cov.Merge(res.Coverage)
			for _, v := range res.Violations {
				key := v.Kind + "\x00" + v.Detail
				f, ok := byKey[key]
				if !ok {
					f = &Finding{Kind: v.Kind, Detail: v.Detail, Schedule: sched.String()}
					byKey[key] = f
					order = append(order, key)
				}
				if !worldSeen[key] {
					worldSeen[key] = true
					f.Worlds++
				}
			}
		}
		if o.OnProgress != nil {
			o.OnProgress(Progress{
				Users:      o.Users,
				Worlds:     len(p.sizes),
				WorldsDone: wi + 1,
				Executed:   rep.Executed,
				Shared:     rep.Shared,
			})
		}
	}
	sort.Strings(order)
	for _, key := range order {
		rep.Findings = append(rep.Findings, *byKey[key])
	}
	rep.CoverageBits = cov.Bits()
	return rep, nil
}

// executeJobs runs schedule jobs through the distributor hook when one
// is offered (and willing), else locally with bounded parallelism.
func executeJobs(ctx context.Context, o Options, sjobs []ScheduleJob) ([]ScheduleResult, error) {
	if len(sjobs) == 0 {
		return nil, nil
	}
	if o.Execute != nil {
		if results, ok := o.Execute(ctx, sjobs); ok {
			if len(results) != len(sjobs) {
				return nil, fmt.Errorf("multiuser: distributor returned %d results for %d jobs", len(results), len(sjobs))
			}
			ordered := make([]ScheduleResult, len(sjobs))
			seen := make([]bool, len(sjobs))
			for _, r := range results {
				if r.Index < 0 || r.Index >= len(sjobs) || seen[r.Index] {
					return nil, fmt.Errorf("multiuser: distributor returned bad or duplicate job index %d", r.Index)
				}
				seen[r.Index] = true
				ordered[r.Index] = r
			}
			return ordered, nil
		}
	}
	par := o.Parallelism
	if par < 1 {
		par = 1
	}
	if par > len(sjobs) {
		par = len(sjobs)
	}
	results := make([]ScheduleResult, len(sjobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				results[idx] = ExecuteScheduleJob(sjobs[idx])
			}
		}()
	}
feed:
	for i := range sjobs {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
