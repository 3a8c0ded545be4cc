package serve

// The job-submission wire format and its decoder. The decoder is
// strict — unknown fields, trailing garbage and unknown enum names are
// rejected with a diagnostic, never a panic (it is fuzzed; see
// FuzzDecodeJobRequest) — and every bound is jobs.Spec.Validate's.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/replayer"
)

// JobRequest is the POST /api/jobs body.
type JobRequest struct {
	// Kind is replay, navigation-campaign, timing-campaign, report,
	// fuzz-campaign, or load-campaign.
	Kind string `json:"kind"`
	// Trace names an uploaded trace (see POST /api/traces). Load
	// campaigns run registered workloads instead and must omit it.
	Trace string `json:"trace,omitempty"`
	// Mode is the execution browser build: "developer" (default) or
	// "user".
	Mode string `json:"mode,omitempty"`
	// Pacing is "recorded" (default) or "none".
	Pacing string `json:"pacing,omitempty"`
	// Replicas, for replay jobs, replays the trace N times concurrently.
	Replicas int `json:"replicas,omitempty"`
	// Parallelism is the campaign executor's concurrency.
	Parallelism int `json:"parallelism,omitempty"`
	// MaxTraces bounds a navigation campaign (0 = all mutants).
	MaxTraces int `json:"maxTraces,omitempty"`
	// DisablePruning and DisablePrefixSharing are the campaign
	// ablations.
	DisablePruning       bool `json:"disablePruning,omitempty"`
	DisablePrefixSharing bool `json:"disablePrefixSharing,omitempty"`
	// FuzzBudget bounds a fuzz campaign's replay spend (0 = the engine
	// default); FuzzSeed seeds its deterministic mutation stream.
	FuzzBudget int   `json:"fuzzBudget,omitempty"`
	FuzzSeed   int64 `json:"fuzzSeed,omitempty"`
	// Description annotates report jobs.
	Description string `json:"description,omitempty"`
	// Workload names the registered multi-user workload of a load
	// campaign (required for load-campaign, rejected elsewhere).
	Workload string `json:"workload,omitempty"`
	// Users and Cohort size a load campaign: total virtual users, users
	// per shared world.
	Users  int `json:"users,omitempty"`
	Cohort int `json:"cohort,omitempty"`
	// ScheduleBudget bounds the interleavings explored per world size;
	// ScheduleSeed drives the deterministic explorer.
	ScheduleBudget int   `json:"scheduleBudget,omitempty"`
	ScheduleSeed   int64 `json:"scheduleSeed,omitempty"`
	// Duration is each world's virtual time budget ("10m"; empty = one
	// action gap per schedule slot).
	Duration string `json:"duration,omitempty"`
	// DisableLoadSharing is the schedule-result-sharing ablation.
	DisableLoadSharing bool `json:"disableLoadSharing,omitempty"`
}

// DecodeJobRequest parses a job-submission body strictly and checks
// the spec it names with jobs.Spec.Validate, before its trace is
// resolved.
func DecodeJobRequest(data []byte) (*JobRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: decoding job request: %w", err)
	}
	// One JSON value only: trailing non-space content is a malformed
	// request, not an extra job.
	if dec.More() {
		return nil, errors.New("serve: decoding job request: trailing data after JSON object")
	}
	spec, err := req.spec()
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		return nil, err
	}
	return &req, nil
}

// spec maps the request onto an engine spec: kind, mode and pacing
// names to their values, the duration parsed. The trace is named, not
// resolved.
func (req *JobRequest) spec() (jobs.Spec, error) {
	spec := jobs.Spec{
		TraceName:            req.Trace,
		Replicas:             req.Replicas,
		Parallelism:          req.Parallelism,
		MaxTraces:            req.MaxTraces,
		DisablePruning:       req.DisablePruning,
		DisablePrefixSharing: req.DisablePrefixSharing,
		FuzzBudget:           req.FuzzBudget,
		FuzzSeed:             req.FuzzSeed,
		Description:          req.Description,
		Workload:             req.Workload,
		Users:                req.Users,
		Cohort:               req.Cohort,
		ScheduleBudget:       req.ScheduleBudget,
		ScheduleSeed:         req.ScheduleSeed,
		DisableLoadSharing:   req.DisableLoadSharing,
	}
	_ = spec.Kind.UnmarshalText([]byte(req.Kind))
	switch req.Mode {
	case "", "developer": // engine default
	case "user":
		spec.Mode = browser.UserMode
	default:
		return spec, fmt.Errorf("serve: unknown mode %q (want developer or user)", req.Mode)
	}
	switch req.Pacing {
	case "", "recorded": // engine default
	case "none":
		spec.Replayer.Pacing = replayer.PaceNone
	default:
		return spec, fmt.Errorf("serve: unknown pacing %q (want recorded or none)", req.Pacing)
	}
	if req.Duration != "" {
		d, err := time.ParseDuration(req.Duration)
		if err != nil {
			return spec, fmt.Errorf("serve: parsing duration: %w", err)
		}
		spec.Duration = d
	}
	return spec, nil
}

// specFor resolves a decoded request into an engine spec, looking its
// trace up among the uploaded ones.
func (s *Server) specFor(req *JobRequest) (jobs.Spec, error) {
	spec, err := req.spec()
	if err != nil || spec.Kind.TakesWorkload() {
		return spec, err
	}
	if req.Trace == "" {
		return spec, errors.New("serve: job request missing trace")
	}
	st, ok := s.Trace(req.Trace)
	if !ok {
		return spec, fmt.Errorf("serve: unknown trace %q (upload it first)", req.Trace)
	}
	spec.Trace, spec.TraceName = st.Trace, st.Name
	return spec, nil
}
