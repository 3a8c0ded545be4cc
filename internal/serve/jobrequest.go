package serve

// The job-submission wire format and its decoder. The decoder is
// strict — unknown fields, trailing garbage, out-of-range numbers and
// unknown enum names are all rejected with a diagnostic, never a panic
// (it is fuzzed; see FuzzDecodeJobRequest).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/multiuser"
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

// bounds a submission may not exceed; far above any sensible run, they
// exist so a hostile request cannot make the engine allocate per-unit
// state without limit.
const (
	maxReplicas       = 1024
	maxParallelism    = 1024
	maxFuzzBudget     = 65536
	maxUsers          = 1 << 21
	maxCohort         = 64
	maxScheduleBudget = 4096
	maxDuration       = 24 * time.Hour
)

// DecodeJobRequest parses and validates a job-submission body.
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
	if req.Kind == "" {
		return nil, errors.New("serve: job request missing kind")
	}
	kind := req.kind()
	if kind == 0 {
		return nil, fmt.Errorf("serve: unknown job kind %q", req.Kind)
	}
	if kind.TakesWorkload() {
		if req.Trace != "" {
			return nil, fmt.Errorf("serve: %s jobs run workloads, not traces", kind)
		}
		if req.Workload == "" {
			return nil, fmt.Errorf("serve: %s job missing workload", kind)
		}
		if _, err := multiuser.LookupWorkload(req.Workload); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	} else {
		if req.Trace == "" {
			return nil, errors.New("serve: job request missing trace")
		}
		if req.Workload != "" || req.Users != 0 || req.Cohort != 0 ||
			req.ScheduleBudget != 0 || req.ScheduleSeed != 0 || req.Duration != "" || req.DisableLoadSharing {
			return nil, fmt.Errorf("serve: load-campaign fields are not valid on a %s job", req.Kind)
		}
	}
	switch req.Mode {
	case "", "developer", "user":
	default:
		return nil, fmt.Errorf("serve: unknown mode %q (want developer or user)", req.Mode)
	}
	switch req.Pacing {
	case "", "recorded", "none":
	default:
		return nil, fmt.Errorf("serve: unknown pacing %q (want recorded or none)", req.Pacing)
	}
	if req.Replicas < 0 || req.Replicas > maxReplicas {
		return nil, fmt.Errorf("serve: replicas %d out of range [0, %d]", req.Replicas, maxReplicas)
	}
	if req.Parallelism < 0 || req.Parallelism > maxParallelism {
		return nil, fmt.Errorf("serve: parallelism %d out of range [0, %d]", req.Parallelism, maxParallelism)
	}
	if req.MaxTraces < 0 {
		return nil, fmt.Errorf("serve: maxTraces %d negative", req.MaxTraces)
	}
	if req.FuzzBudget < 0 || req.FuzzBudget > maxFuzzBudget {
		return nil, fmt.Errorf("serve: fuzzBudget %d out of range [0, %d]", req.FuzzBudget, maxFuzzBudget)
	}
	if req.Users < 0 || req.Users > maxUsers {
		return nil, fmt.Errorf("serve: users %d out of range [0, %d]", req.Users, maxUsers)
	}
	if req.Cohort < 0 || req.Cohort > maxCohort {
		return nil, fmt.Errorf("serve: cohort %d out of range [0, %d]", req.Cohort, maxCohort)
	}
	if req.ScheduleBudget < 0 || req.ScheduleBudget > maxScheduleBudget {
		return nil, fmt.Errorf("serve: scheduleBudget %d out of range [0, %d]", req.ScheduleBudget, maxScheduleBudget)
	}
	if req.Duration != "" {
		d, err := time.ParseDuration(req.Duration)
		if err != nil {
			return nil, fmt.Errorf("serve: parsing duration: %w", err)
		}
		if d < 0 || d > maxDuration {
			return nil, fmt.Errorf("serve: duration %s out of range [0, %s]", d, maxDuration)
		}
	}
	return &req, nil
}

// kind resolves the request's kind name (0 when unknown).
func (req *JobRequest) kind() jobs.Kind {
	var k jobs.Kind
	_ = k.UnmarshalText([]byte(req.Kind))
	return k
}

// specFor resolves a validated request into an engine spec.
func (s *Server) specFor(req *JobRequest) (jobs.Spec, error) {
	kind := req.kind()
	if kind.TakesWorkload() {
		// Workload kinds are self-contained: the workload name stands in
		// for the trace, and the duration string was validated already.
		d, _ := time.ParseDuration(req.Duration)
		return jobs.Spec{
			Kind:               kind,
			Workload:           req.Workload,
			Users:              req.Users,
			Cohort:             req.Cohort,
			ScheduleBudget:     req.ScheduleBudget,
			ScheduleSeed:       req.ScheduleSeed,
			Duration:           d,
			Parallelism:        req.Parallelism,
			DisableLoadSharing: req.DisableLoadSharing,
			Mode:               modeFor(req.Mode),
		}, nil
	}
	st, ok := s.Trace(req.Trace)
	if !ok {
		return jobs.Spec{}, fmt.Errorf("serve: unknown trace %q (upload it first)", req.Trace)
	}
	spec := jobs.Spec{
		Kind:                 kind,
		Trace:                st.Trace,
		TraceName:            st.Name,
		Replicas:             req.Replicas,
		Parallelism:          req.Parallelism,
		MaxTraces:            req.MaxTraces,
		DisablePruning:       req.DisablePruning,
		DisablePrefixSharing: req.DisablePrefixSharing,
		FuzzBudget:           req.FuzzBudget,
		FuzzSeed:             req.FuzzSeed,
		Description:          req.Description,
	}
	spec.Mode = modeFor(req.Mode)
	if req.Pacing == "none" {
		spec.Replayer.Pacing = replayer.PaceNone
	}
	return spec, nil
}

// modeFor maps a validated mode name to the browser build it selects.
func modeFor(name string) browser.Mode {
	if name == "user" {
		return browser.UserMode
	}
	return 0 // engine default: developer
}
