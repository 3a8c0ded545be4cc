// Package jobs is the shared job engine behind every face of this
// module. A job is a typed spec of one of six kinds: one-shot replay,
// WebErr navigation and timing campaigns, AUsER report ingestion, the
// error-model fuzz campaign, and the multi-user load campaign. One kind
// table (job.go) holds what differs between kinds: name, input, runner
// and campaign name. The engine runs jobs over the replayer.Session,
// campaign.Executor and multiuser APIs, behind a bounded work queue
// with backpressure and graceful drain, a per-job event bus streaming
// step-by-step results, cancellation via context, and Prometheus-style
// metrics. A cancelled job resumes as a new job that re-runs its spec,
// and after a crash the write-ahead journal re-runs each unfinished
// job's spec the same way: replay is deterministic, so either re-run
// publishes the uninterrupted stream. The command-line tools submit
// jobs to an in-process engine and print its events; warr-serve exposes
// the same engine over HTTP/SSE — so there is exactly one execution
// path no matter which face drives it.
package jobs

// This file defines the event vocabulary and its JSON-lines encoding.
// The step/summary/skipped shapes are the machine-readable per-step
// format warr-replay's -json flag has emitted since the session API
// landed; they moved here verbatim (field names, order, omitempty
// semantics — the encoding is pinned byte-for-byte by tests) so the CLI
// stdout stream, the SSE stream, and job logs all come from one
// encoder. The remaining shapes are service-level: job state
// transitions, per-trace campaign outcomes, campaign reports, and AUsER
// ingestion classifications.

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// Event is one entry in a job's event stream. Every concrete event is a
// flat JSON object whose "type" field names its shape.
type Event interface {
	// EventType returns the value of the event's "type" field.
	EventType() string
}

// StepEvent reports one replayed command — the machine-readable shape
// warr-replay -json prints per step.
type StepEvent struct {
	Type      string `json:"type"`
	Index     int    `json:"index"`
	Action    string `json:"action"`
	XPath     string `json:"xpath"`
	Status    string `json:"status"`
	UsedXPath string `json:"usedXPath,omitempty"`
	Heuristic string `json:"heuristic,omitempty"`
	Error     string `json:"error,omitempty"`
}

func (StepEvent) EventType() string { return "step" }

// NewStepEvent converts a replayed step into its event.
func NewStepEvent(step replayer.Step) StepEvent {
	ev := StepEvent{
		Type:      "step",
		Index:     step.Index,
		Action:    step.Cmd.Action.String(),
		XPath:     step.Cmd.XPath,
		Status:    step.Status.String(),
		UsedXPath: step.UsedXPath,
		Heuristic: step.Heuristic,
	}
	if step.Err != nil {
		ev.Error = step.Err.Error()
	}
	return ev
}

// SummaryEvent reports a finished replay (one per session; one per
// replica for replicated replays).
type SummaryEvent struct {
	Type          string   `json:"type"`
	Replica       int      `json:"replica"`
	Commands      int      `json:"commands"`
	Played        int      `json:"played"`
	Failed        int      `json:"failed"`
	Halted        bool     `json:"halted"`
	Cancelled     bool     `json:"cancelled"`
	Complete      bool     `json:"complete"`
	FinalURL      string   `json:"finalURL,omitempty"`
	Title         string   `json:"title,omitempty"`
	ConsoleErrors []string `json:"consoleErrors,omitempty"`
}

func (SummaryEvent) EventType() string { return "summary" }

// NewSummaryEvent summarizes a replay result. tab may be nil (replica
// summaries do not expose per-replica page state).
func NewSummaryEvent(replica, commands int, res *replayer.Result, tab *browser.Tab) SummaryEvent {
	ev := SummaryEvent{
		Type:      "summary",
		Replica:   replica,
		Commands:  commands,
		Played:    res.Played,
		Failed:    res.Failed,
		Halted:    res.Halted,
		Cancelled: res.Cancelled,
		Complete:  res.Complete(),
	}
	if tab != nil {
		ev.FinalURL = tab.URL()
		ev.Title = tab.Title()
		for _, e := range tab.ConsoleErrors() {
			ev.ConsoleErrors = append(ev.ConsoleErrors, e.Message)
		}
	}
	return ev
}

// SkippedEvent reports a replica whose replay never started because the
// job was cancelled first.
type SkippedEvent struct {
	Type    string `json:"type"`
	Replica int    `json:"replica"`
}

func (SkippedEvent) EventType() string { return "skipped" }

// StateEvent reports a job state transition.
type StateEvent struct {
	Type  string `json:"type"`
	Job   string `json:"job"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Cause records why a job was cancelled; Error records why it
	// failed.
	Cause string `json:"cause,omitempty"`
	Error string `json:"error,omitempty"`
}

func (StateEvent) EventType() string { return "state" }

// OutcomeEvent reports one campaign trace's fate, in job order.
type OutcomeEvent struct {
	Type      string `json:"type"`
	Index     int    `json:"index"`
	Injection string `json:"injection,omitempty"`
	// Status is replayed, pruned, skipped, or cancelled.
	Status  string `json:"status"`
	Played  int    `json:"played"`
	Failed  int    `json:"failed"`
	Finding bool   `json:"finding"`
	// Observed is the oracle's observation for findings.
	Observed string `json:"observed,omitempty"`
	// Coverage is the hex-encoded coverage fingerprint of the replay
	// (fuzz campaigns only; empty otherwise). It rides the same outcome
	// shape over the distrib wire so the coordinator can merge worker
	// coverage deterministically.
	Coverage string `json:"coverage,omitempty"`
	// FirstFailed is the index of the replay's first failed step plus
	// one (0: no failed step, or not reported). Only distrib workers set
	// it, so the coordinator's fuzz loop can record the failed prefix;
	// the engine's own outcome lines never carry it.
	FirstFailed int `json:"firstFailed,omitempty"`
}

func (OutcomeEvent) EventType() string { return "outcome" }

// FindingRecord is one campaign finding in a ReportEvent.
type FindingRecord struct {
	Injection string `json:"injection"`
	Observed  string `json:"observed"`
}

// ReportEvent summarizes a finished campaign.
type ReportEvent struct {
	Type string `json:"type"`
	// Campaign is navigation or timing.
	Campaign       string          `json:"campaign"`
	Generated      int             `json:"generated"`
	Replayed       int             `json:"replayed"`
	Pruned         int             `json:"pruned"`
	Skipped        int             `json:"skipped"`
	ReplayFailures int             `json:"replayFailures"`
	Findings       []FindingRecord `json:"findings,omitempty"`
}

func (ReportEvent) EventType() string { return "report" }

// FuzzEvent reports a fuzz campaign's running stats, published after
// every absorbed batch — the SSE progress lane of `weberr -fuzz` and
// warr-serve fuzz jobs.
type FuzzEvent struct {
	Type         string `json:"type"`
	Generated    int    `json:"generated"`
	Deduped      int    `json:"deduped"`
	Pruned       int    `json:"pruned"`
	Replayed     int    `json:"replayed"`
	Skipped      int    `json:"skipped"`
	Novel        int    `json:"novel"`
	CorpusSize   int    `json:"corpusSize"`
	CoverageBits int    `json:"coverageBits"`
	Findings     int    `json:"findings"`
	Budget       int    `json:"budget"`
	Spent        int    `json:"spent"`
}

func (FuzzEvent) EventType() string { return "fuzz" }

// LoadEvent reports a load campaign's running progress, published as
// worlds are absorbed — the SSE progress lane of warr-load and
// warr-serve load jobs. The closing frame carries the final counters.
type LoadEvent struct {
	Type     string `json:"type"`
	Workload string `json:"workload"`
	// Users is the campaign's total virtual user count.
	Users int `json:"users"`
	// Worlds and WorldsDone track shared-world absorption.
	Worlds     int `json:"worlds"`
	WorldsDone int `json:"worldsDone"`
	// Executed counts schedules actually run; Shared counts world
	// schedules served from an identical already-executed run.
	Executed int `json:"executed"`
	Shared   int `json:"shared"`
	// CoverageBits and Findings are only set on the closing frame.
	CoverageBits int `json:"coverageBits,omitempty"`
	Findings     int `json:"findings,omitempty"`
}

func (LoadEvent) EventType() string { return "load" }

// ClassificationEvent reports the outcome of AUsER report ingestion:
// the server-side replay → minimize → classify pipeline (Fig. 1).
type ClassificationEvent struct {
	Type string `json:"type"`
	// Verdict is console-error, replay-failure, replay-halted, or
	// no-repro.
	Verdict string `json:"verdict"`
	// Signal is the observation the classification rests on (first
	// console error, first failed command).
	Signal string `json:"signal,omitempty"`
	// Commands and MinimizedCommands compare the reported trace with
	// the minimized reproducer.
	Commands          int `json:"commands"`
	MinimizedCommands int `json:"minimizedCommands"`
	// Replays counts the replays the minimizer spent.
	Replays int `json:"replays"`
}

func (ClassificationEvent) EventType() string { return "classification" }

// Encoder writes events as JSON lines: one object per line, exactly the
// stream warr-replay -json prints and warr-serve's SSE data frames
// carry.
type Encoder struct {
	enc *json.Encoder
}

// NewEncoder returns an encoder writing JSON lines to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{enc: json.NewEncoder(w)} }

// Encode writes one event line.
func (e *Encoder) Encode(ev Event) error { return e.enc.Encode(ev) }

// EncodeEvent renders one event as its JSON line (trailing newline
// included).
func EncodeEvent(ev Event) ([]byte, error) {
	b, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeEvent parses one JSON event line into its typed event, keyed by
// the "type" field.
func DecodeEvent(line []byte) (Event, error) {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, fmt.Errorf("jobs: decoding event: %w", err)
	}
	var ev Event
	switch probe.Type {
	case "step":
		ev = &StepEvent{}
	case "summary":
		ev = &SummaryEvent{}
	case "skipped":
		ev = &SkippedEvent{}
	case "state":
		ev = &StateEvent{}
	case "outcome":
		ev = &OutcomeEvent{}
	case "report":
		ev = &ReportEvent{}
	case "fuzz":
		ev = &FuzzEvent{}
	case "load":
		ev = &LoadEvent{}
	case "classification":
		ev = &ClassificationEvent{}
	default:
		return nil, fmt.Errorf("jobs: unknown event type %q", probe.Type)
	}
	if err := json.Unmarshal(line, ev); err != nil {
		return nil, fmt.Errorf("jobs: decoding %s event: %w", probe.Type, err)
	}
	switch v := ev.(type) {
	case *StepEvent:
		return *v, nil
	case *SummaryEvent:
		return *v, nil
	case *SkippedEvent:
		return *v, nil
	case *StateEvent:
		return *v, nil
	case *OutcomeEvent:
		return *v, nil
	case *ReportEvent:
		return *v, nil
	case *FuzzEvent:
		return *v, nil
	case *LoadEvent:
		return *v, nil
	case *ClassificationEvent:
		return *v, nil
	}
	return nil, fmt.Errorf("jobs: unreachable event type %q", probe.Type)
}
