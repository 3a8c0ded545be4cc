package distrib

// Distributed load campaigns: schedule jobs are self-describing wire
// values, so workers rebuild each shared world from the workload
// registry and the schedule codec alone — no image crosses the wire.
// The contract under test: for a fixed (seed, budget), the distributed
// report is byte-identical to flat single-process execution at any
// worker count, and first-merge-wins keeps it so when workers die
// mid-campaign.

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/multiuser"
)

// runLoad submits one load-campaign job and waits for its report.
func runLoad(t *testing.T, engine *jobs.Engine, spec jobs.Spec) *multiuser.Report {
	t.Helper()
	job, err := engine.Submit(spec)
	if err != nil {
		t.Fatalf("submitting load campaign: %v", err)
	}
	_ = job.Wait(nil)
	if err := job.Err(); err != nil {
		t.Fatalf("load campaign failed: %v", err)
	}
	rep := job.LoadReport()
	if rep == nil {
		t.Fatal("load campaign produced no report")
	}
	return rep
}

func TestDistributedLoadMatchesFlat(t *testing.T) {
	spec := jobs.Spec{
		Kind:           jobs.KindLoadCampaign,
		Workload:       "sites-notes",
		Users:          6,
		Cohort:         3,
		ScheduleBudget: 4,
		ScheduleSeed:   11,
	}

	flatEngine := jobs.New(jobs.Options{Workers: 1})
	defer flatEngine.Close()
	flat := runLoad(t, flatEngine, spec)
	if len(flat.Findings) == 0 {
		t.Fatal("the flat run surfaced no findings; the test needs a contention bug")
	}

	for _, workers := range []int{1, 3} {
		engine, pool := distribEngine(t, workers, 10*time.Second)
		dist := runLoad(t, engine, spec)
		if flat.Render() != dist.Render() {
			t.Errorf("%d workers: distributed report diverged\nflat:\n%s\ndistributed:\n%s",
				workers, flat.Render(), dist.Render())
		}
		var metrics strings.Builder
		pool.WriteMetrics(&metrics)
		if !strings.Contains(metrics.String(), "warr_distrib_load_campaigns_total 1") {
			t.Errorf("%d workers: pool metrics lack the load campaign counter:\n%s", workers, metrics.String())
		}
	}
}

func TestDistributedLoadFallsBackWithoutWorkers(t *testing.T) {
	pool := NewPool(PoolOptions{Logf: t.Logf})
	if _, ok := pool.DistributeLoad(context.Background(), []multiuser.ScheduleJob{{
		Workload: "mixed", Users: 3, Schedule: "users:3;slots:0,1,2", Mode: 0,
	}}, jobs.DistSpec{Campaign: "load"}); ok {
		t.Fatal("an idle pool with no workers accepted a load campaign")
	}
}

func TestShardSchedulesGroupsByPrefix(t *testing.T) {
	sjobs := []multiuser.ScheduleJob{
		{Index: 0, Workload: "mixed", Users: 2, Schedule: "users:2;slots:0,1,0,1"},
		{Index: 1, Workload: "mixed", Users: 2, Schedule: "users:2;slots:0,0,1,1"},
		{Index: 2, Workload: "mixed", Users: 2, Schedule: "users:2;slots:1,0,1,0"},
		{Index: 3, Workload: "mixed", Users: 3, Schedule: "users:3;slots:0,1,2"},
	}
	shards := shardSchedules(sjobs)
	if len(shards) != 3 {
		t.Fatalf("shards = %d, want 3 (two users:2 prefixes + one users:3)", len(shards))
	}
	if len(shards[0]) != 2 || shards[0][0].Index != 0 || shards[0][1].Index != 1 {
		t.Errorf("first shard should hold the two slots:0-prefixed jobs, got %+v", shards[0])
	}
	total := 0
	for _, sh := range shards {
		total += len(sh)
	}
	if total != len(sjobs) {
		t.Errorf("sharding dropped jobs: %d of %d", total, len(sjobs))
	}
}
