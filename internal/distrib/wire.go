// Package distrib runs a campaign across worker processes: a
// coordinator plans the trace trie into shards (internal/campaign) and
// hands them out over localhost HTTP/JSON to workers. A shard is a
// set of jobs plus the depth of the prefix they share; the worker
// replays that prefix in a fresh world from its own app registry and
// continues the subtree with the very same scheduler the in-process
// executor uses — the trace is the recipe for the world, so no world
// state crosses the wire. The coordinator side implements
// jobs.Distributor, so the shared job engine offers it every campaign
// before falling back to local execution; the worker side is a poll
// loop any process linking the app registry can run (cmd/warr-worker,
// or weberr -workers N in-process).
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
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

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

// WireJob is one shard job on the wire: its pacing override, its start
// URL, and its commands as indices into the lease's command dictionary
// (WireLease.Commands). Meta never crosses the boundary — it is
// coordinator-side context (e.g. weberr's Injection) rebound when
// outcomes merge.
type WireJob struct {
	Pacing   replayer.Pacing `json:"pacing,omitempty"`
	StartURL string          `json:"start,omitempty"`
	Refs     []int32         `json:"refs"`
}

// wireCommand is a dictionary entry: a command.Command under one-letter
// keys, its zero fields left off the wire. It converts to and from
// command.Command directly, so the two cannot drift apart.
type wireCommand struct {
	Action  command.Action `json:"a"`
	XPath   string         `json:"p,omitempty"`
	X       int            `json:"x,omitempty"`
	Y       int            `json:"y,omitempty"`
	DX      int            `json:"dx,omitempty"`
	DY      int            `json:"dy,omitempty"`
	Key     string         `json:"k,omitempty"`
	Code    int            `json:"c,omitempty"`
	Elapsed int            `json:"e,omitempty"`
}

// WireLease is the coordinator's reply to a lease poll. When Status is
// StatusLease it carries one shard plus the campaign's DistSpec,
// everything the worker needs to rebuild the campaign's executor: the
// campaign name picks the oracle from the job kind table (closures
// cannot cross processes), the browser mode names the environment
// build, and the replayer options ride without their hooks (leases are
// never granted for hooked campaigns).
type WireLease struct {
	Status string `json:"status"`
	ID     string `json:"id,omitempty"`
	jobs.DistSpec
	// Depth is how many leading commands every job of the shard shares;
	// the worker replays them once before the subtree branches.
	Depth int `json:"depth,omitempty"`
	// Commands is the shard's command dictionary: every distinct command
	// its jobs use, once. WebErr mutants reorder, substitute and omit
	// the base trace's commands, so a shard's jobs share almost all of
	// them.
	Commands []wireCommand `json:"commands,omitempty"`
	// Jobs are the shard's jobs, each a list of refs into Commands. The
	// key is deliberately not the "jobs" that older workers read: they
	// decode zero jobs and report zero outcomes, which the coordinator's
	// merge rejects on the outcome count, so a mixed fleet never merges
	// wrong outcomes.
	Jobs []WireJob `json:"dictJobs,omitempty"`
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
	// instead of Jobs): self-describing multi-user schedule jobs
	// the worker executes in fresh shared worlds of its own.
	LoadJobs []multiuser.ScheduleJob `json:"loadJobs,omitempty"`
	// Sum is the reply's integrity checksum, as CompleteMsg.Sum: a
	// grant whose dictionary was garbled in flight must not execute. The
	// worker treats a reply decodeLease refuses as a failed poll, and
	// its next poll forfeits the grant it never received. 0 means
	// unsealed.
	Sum uint64 `json:"sum,omitempty"`
}

// verifySealed checks a sealed message — a lease reply or a completion
// report — against the bytes it arrived as. The sender checksummed its
// own encoding with Sum zeroed, and Sum is the last field, so cutting
// `,"sum":N` out of the received bytes restores exactly what was sealed
// — whatever fields the sender's version had. A worker thus accepts
// grants whose leases carry fields it does not know (an older
// coordinator's image digest), and a coordinator accepts reports
// carrying fields it does not know. Messages sealed field by field by
// older versions produced the same bytes and verify too. sum 0
// (unsealed) always passes.
func verifySealed(body []byte, sum uint64) bool {
	if sum == 0 {
		return true
	}
	body = bytes.TrimSuffix(body, []byte("\n"))
	tail := `,"sum":` + strconv.FormatUint(sum, 10) + `}`
	n := len(body) - len(tail)
	if n < 0 || string(body[n:]) != tail {
		return false
	}
	return fnv1a.AddByte(fnv1a.Bytes(body[:n]), '}') == sum
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
	// Sum is the FNV-1a checksum of the message's encoding with Sum
	// zeroed (see seal). A corrupted transfer that still decodes as
	// JSON — a flipped byte inside a string value — would otherwise
	// merge garbage into the campaign; the checksum turns every
	// corruption into a rejection the worker's retry recovers from. 0
	// means unsealed (accepted for mixed-version tolerance).
	Sum uint64 `json:"sum,omitempty"`
}

// seal encodes a wire message — a JSON object whose last field is its
// zero `Sum uint64 json:"sum,omitempty"` — once, checksums those bytes,
// and splices the sum in as the last field: the bytes the receiver's
// verifySealed checks. The message must encode at least one field
// before Sum.
func seal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	sum := fnv1a.Bytes(b)
	b = append(b[:len(b)-1], `,"sum":`...)
	b = strconv.AppendUint(b, sum, 10)
	return append(b, '}'), nil
}

// encodeJobs dictionary-codes the shard jobs idx of all: each distinct
// command is entered once, in first-use order, and each job becomes
// its pacing, start URL and refs.
func encodeJobs(all []campaign.Job, idx []int) ([]wireCommand, []WireJob) {
	dict := make(map[command.Command]int32)
	var cmds []wireCommand
	wjobs := make([]WireJob, len(idx))
	for i, ji := range idx {
		j := all[ji]
		refs := make([]int32, len(j.Trace.Commands))
		for k, c := range j.Trace.Commands {
			ref, ok := dict[c]
			if !ok {
				ref = int32(len(cmds))
				dict[c] = ref
				cmds = append(cmds, wireCommand(c))
			}
			refs[k] = ref
		}
		wjobs[i] = WireJob{Pacing: j.Pacing, StartURL: j.Trace.StartURL, Refs: refs}
	}
	return cmds, wjobs
}

// expandJobs rebuilds a lease's campaign jobs from its dictionary. A
// ref outside the dictionary makes the whole lease malformed.
func (l *WireLease) expandJobs() ([]campaign.Job, error) {
	cjobs := make([]campaign.Job, len(l.Jobs))
	for i, wj := range l.Jobs {
		cmds := make([]command.Command, len(wj.Refs))
		for k, ref := range wj.Refs {
			if ref < 0 || int(ref) >= len(l.Commands) {
				return nil, fmt.Errorf("distrib: lease job %d command %d: ref %d outside a %d-command dictionary",
					i, k, ref, len(l.Commands))
			}
			cmds[k] = command.Command(l.Commands[ref])
		}
		cjobs[i] = campaign.Job{Trace: command.Trace{StartURL: wj.StartURL, Commands: cmds}, Pacing: wj.Pacing}
	}
	return cjobs, nil
}

// decodeLease decodes a lease reply, verifies its seal against the
// bytes it arrived as, and expands its jobs. Any failure is a failed
// poll: the worker's next poll forfeits the grant it never received.
func decodeLease(body []byte) (*WireLease, []campaign.Job, error) {
	var l WireLease
	if err := json.Unmarshal(body, &l); err != nil {
		return nil, nil, err
	}
	if !verifySealed(body, l.Sum) {
		return nil, nil, errors.New("distrib: lease reply failed checksum verification")
	}
	cjobs, err := l.expandJobs()
	if err != nil {
		return nil, nil, err
	}
	return &l, cjobs, nil
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
		// coverage into its corpus, and the first failed step rides
		// along for its prune table. Other campaigns never read the
		// step, and leaving it off keeps their reports byte-identical
		// for coordinators that predate the field.
		ev.Coverage = hex.EncodeToString(out.Coverage)
		if out.Result != nil {
			ev.FirstFailed = campaign.FirstFailure(out.Result) + 1
		}
	}
	return ev
}

// decodeOutcome rebuilds a campaign outcome from its wire event. Step
// lists do not cross the wire — campaign reports aggregate only
// played/failed counts and verdicts, which survive exactly — except
// for the first failed step, which comes back as a one-step list so
// the fuzz loop can record the failed prefix as a local run would. The
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
	if out.Result != nil && ev.FirstFailed > 0 {
		out.Result.Steps = []replayer.Step{{Index: ev.FirstFailed - 1, Status: replayer.StepFailed}}
	}
	if ev.Coverage != "" {
		if cov, err := hex.DecodeString(ev.Coverage); err == nil {
			out.Coverage = cov
		}
	}
	return out
}
