// Package distrib runs a campaign across worker processes: a
// coordinator plans the trace trie into shards (internal/campaign),
// parks each shard's branch-point world as a durable image
// (internal/image), and hands shards out over localhost HTTP/JSON to
// workers that restore the image and continue the subtree with the
// very same scheduler the in-process executor uses. The coordinator
// side implements jobs.Distributor, so the shared job engine offers it
// every campaign before falling back to local execution; the worker
// side is a poll loop any process linking the app registry can run
// (cmd/warr-worker, or weberr -workers N in-process).
//
// The protocol reuses the internal/jobs event vocabulary: a worker
// reports its shard's results as jobs.OutcomeEvent lines, the exact
// shape the engine publishes per trace — so a shard completion is
// literally a slice of the campaign's event stream, indexed by
// position within the shard.
//
// Fault tolerance is lease-based. A lease is live while its worker
// keeps heartbeating; a worker that dies (or stalls past the TTL)
// forfeits its leases and the coordinator re-queues those shards for
// the surviving workers. Findings are identical to flat single-process
// execution under any sharding, worker count, or mid-campaign worker
// death: a pruned trace can never produce a finding, so per-shard
// prune tables only shift the Replayed/Pruned split, never verdicts.
package distrib

import (
	"encoding/hex"
	"encoding/json"
	"errors"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/campaign"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/fnv1a"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/multiuser"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// Lease statuses.
const (
	// StatusLease grants a shard.
	StatusLease = "lease"
	// StatusWait means a campaign is running but no shard is queued
	// right now; poll again soon (a re-queue may produce one).
	StatusWait = "wait"
	// StatusIdle means no campaign is running.
	StatusIdle = "idle"
)

// WireJob is one shard job on the wire: the trace and its pacing
// override. Meta never crosses the boundary — it is coordinator-side
// context (e.g. weberr's Injection) rebound when outcomes merge.
type WireJob struct {
	Pacing replayer.Pacing `json:"pacing,omitempty"`
	Trace  command.Trace   `json:"trace"`
}

// WireLease is the coordinator's reply to a lease poll. When Status is
// StatusLease it carries one shard plus everything the worker needs to
// rebuild the campaign's executor: the campaign kind names the oracle
// (closures cannot cross processes), the browser mode names the
// environment build, and the replayer options ride in their
// serializable image form (hooks excluded — leases are never granted
// for hooked campaigns).
type WireLease struct {
	Status string `json:"status"`
	ID     string `json:"id,omitempty"`
	// Campaign is "navigation", "timing", "fuzz", or "load".
	Campaign       string                `json:"campaign,omitempty"`
	Mode           browser.Mode          `json:"mode,omitempty"`
	Replayer       replayer.OptionsImage `json:"replayer"`
	DisablePruning bool                  `json:"disablePruning,omitempty"`
	Parallelism    int                   `json:"parallelism,omitempty"`
	// Image is the content digest of the branch-point image; the worker
	// fetches the bytes from GET /image/{digest}.
	Image string `json:"image,omitempty"`
	// Depth is how many commands of every job the imaged session has
	// already replayed.
	Depth int       `json:"depth,omitempty"`
	Jobs  []WireJob `json:"jobs,omitempty"`
	// TTLMillis is the lease's heartbeat deadline: the worker must
	// contact the coordinator again within this interval or the shard
	// is re-queued.
	TTLMillis int64 `json:"ttlMillis,omitempty"`
	// Token is the idempotent completion token: "<run>/<shard>", echoed
	// back in CompleteMsg so the coordinator can credit a late
	// completion to its shard even after the lease was reaped — and
	// acknowledge (not double-count) a duplicate.
	Token string `json:"token,omitempty"`
	// Crash directs the worker to die on receipt without executing or
	// reporting — the coordinator-side fault injector's worker-crash op.
	// The lease then expires through the normal TTL reaping path.
	Crash bool `json:"crash,omitempty"`
	// LoadJobs is a load-campaign shard ("load" leases carry these
	// instead of Image/Jobs): self-describing multi-user schedule jobs
	// the worker executes in fresh shared worlds of its own.
	LoadJobs []multiuser.ScheduleJob `json:"loadJobs,omitempty"`
	// Sum is the reply's integrity checksum, as CompleteMsg.Sum: a
	// grant whose trace was garbled in flight must not execute. The
	// worker treats a reply failing Verify as a failed poll, and its
	// next poll forfeits the grant it never received. 0 means unsealed.
	Sum uint64 `json:"sum,omitempty"`
}

// Seal stamps the reply's integrity checksum; call it last.
func (l *WireLease) Seal() error {
	l.Sum = 0
	sum, err := checksum(l)
	l.Sum = sum
	return err
}

// Verify checks the integrity checksum of a received reply. Unsealed
// replies (Sum 0) pass.
func (l WireLease) Verify() bool {
	sum := l.Sum
	l.Sum = 0
	return verifySum(l, sum)
}

// CompleteMsg reports a finished shard: one OutcomeEvent per shard job,
// indexed by position within the shard — or, for load leases, one
// ScheduleResult per schedule job, carrying the lease's original job
// indices.
type CompleteMsg struct {
	Worker      string                     `json:"worker"`
	Lease       string                     `json:"lease"`
	Outcomes    []jobs.OutcomeEvent        `json:"outcomes,omitempty"`
	LoadResults []multiuser.ScheduleResult `json:"loadResults,omitempty"`
	// Token echoes the lease's completion token, so the report stays
	// creditable after the lease itself was reaped.
	Token string `json:"token,omitempty"`
	// Retries is the number of request retries the worker spent since
	// its last report — the coordinator accumulates them into
	// warr_retries_total.
	Retries int64 `json:"retries,omitempty"`
	// Sum is the FNV-1a checksum of the message's canonical encoding
	// with Sum zeroed (see Seal). A corrupted transfer that still
	// decodes as JSON — a flipped byte inside a string value — would
	// otherwise merge garbage into the campaign; the checksum turns
	// every corruption into a rejection the worker's retry recovers
	// from. 0 means unsealed (accepted for mixed-version tolerance).
	Sum uint64 `json:"sum,omitempty"`
}

// Seal stamps the message's integrity checksum; call it last, after
// every other field is final.
func (m *CompleteMsg) Seal() error {
	m.Sum = 0
	sum, err := checksum(m)
	m.Sum = sum
	return err
}

// Verify checks the integrity checksum of a received message. Unsealed
// messages (Sum 0) pass.
func (m CompleteMsg) Verify() bool {
	sum := m.Sum
	m.Sum = 0
	return verifySum(m, sum)
}

// checksum is the FNV-1a sum of v's JSON encoding; the caller zeroes
// v's Sum field first.
func checksum(v any) (uint64, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return fnv1a.Bytes(b), nil
}

// verifySum reports whether v, its Sum field zeroed, checksums to sum;
// sum 0 (unsealed) always passes.
func verifySum(v any, sum uint64) bool {
	if sum == 0 {
		return true
	}
	got, err := checksum(v)
	return err == nil && got == sum
}

// wireReplayer extracts the serializable subset of replayer options
// for the lease. Hooked campaigns are never planned (PlanShards
// refuses them), so nothing is lost.
func wireReplayer(o replayer.Options) replayer.OptionsImage {
	return replayer.OptionsImage{
		Pacing:                    o.Pacing,
		DisableRelaxation:         o.DisableRelaxation,
		DisableCoordinateFallback: o.DisableCoordinateFallback,
		Driver:                    o.Driver,
	}
}

// unwireReplayer rebuilds worker-side replayer options from the lease.
func unwireReplayer(o replayer.OptionsImage) replayer.Options {
	return replayer.Options{
		Pacing:                    o.Pacing,
		DisableRelaxation:         o.DisableRelaxation,
		DisableCoordinateFallback: o.DisableCoordinateFallback,
		Driver:                    o.Driver,
	}
}

// encodeOutcome renders one shard outcome as the engine's per-trace
// event shape. Index is the outcome's position within the shard. The
// status/finding semantics mirror the engine's own encoding: findings
// are reported only for replays that ran to a judgeable end.
func encodeOutcome(i int, out campaign.Outcome) jobs.OutcomeEvent {
	ev := jobs.OutcomeEvent{Type: "outcome", Index: i}
	switch {
	case out.Skipped:
		ev.Status = "skipped"
	case out.Pruned:
		ev.Status = "pruned"
	case out.Result == nil:
		// A session-level failure with no result behaves like a skip.
		ev.Status = "skipped"
	case out.Result.Cancelled:
		ev.Status = "cancelled"
		ev.Played, ev.Failed = out.Result.Played, out.Result.Failed
	default:
		ev.Status = "replayed"
		ev.Played, ev.Failed = out.Result.Played, out.Result.Failed
		if out.Verdict != nil {
			ev.Finding = true
			ev.Observed = out.Verdict.Error()
		}
	}
	if len(out.Coverage) > 0 {
		// Fuzz campaigns: the coverage fingerprint rides the wire hex-
		// encoded so the coordinator's fuzz loop can merge worker
		// coverage into its corpus.
		ev.Coverage = hex.EncodeToString(out.Coverage)
	}
	return ev
}

// decodeOutcome rebuilds a campaign outcome from its wire event. Step
// lists do not cross the wire — campaign reports aggregate only
// played/failed counts and verdicts, which survive exactly. The
// verdict comes back as an opaque error carrying the observed message,
// the same text the engine would publish for a local finding.
func decodeOutcome(ev jobs.OutcomeEvent) campaign.Outcome {
	var out campaign.Outcome
	switch ev.Status {
	case "skipped":
		out.Skipped = true
	case "pruned":
		out.Pruned = true
	case "cancelled":
		out.Result = &replayer.Result{Played: ev.Played, Failed: ev.Failed, Cancelled: true}
	default:
		out.Result = &replayer.Result{Played: ev.Played, Failed: ev.Failed}
		if ev.Finding {
			out.Verdict = errors.New(ev.Observed)
		}
	}
	if ev.Coverage != "" {
		if cov, err := hex.DecodeString(ev.Coverage); err == nil {
			out.Coverage = cov
		}
	}
	return out
}
