// Package serve exposes the shared job engine over HTTP: replay as a
// service. A Server wraps one jobs.Engine behind a JSON API — trace
// upload, job submission with queue backpressure, step-by-step SSE
// streaming, cancel/resume, AUsER report ingestion, Prometheus-style
// metrics — and warr-serve keeps one alive behind net/http with
// signal-driven graceful drain. The handlers hold no execution logic of
// their own: every job runs on the same engine path the one-shot CLIs
// use.
package serve

import (
	"bytes"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/dslab-epfl/warr/internal/auser"
	"github.com/dslab-epfl/warr/internal/command"
	"github.com/dslab-epfl/warr/internal/distrib"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/trace"
)

// maxBodyBytes bounds request bodies (traces, reports): 16 MiB, far
// above any Table II archive.
const maxBodyBytes = 16 << 20

// Options configure a Server.
type Options struct {
	// Engine is the job engine to serve; nil builds a default one.
	Engine *jobs.Engine
	// DeveloperKey, when set, lets /api/reports accept sealed AUsER
	// envelopes (§IV-D): reports encrypted to the developers' public key
	// are opened with this private key. Plain reports are always
	// accepted.
	DeveloperKey *rsa.PrivateKey
	// Distrib, when set, mounts the distributed-campaign coordinator
	// under /api/distrib/ (lease polls, completions, heartbeats for
	// warr-worker processes) and appends its worker-pool
	// gauges to /metrics. Pass the same pool to the engine as its
	// Distributor, or campaigns will never be offered to the workers.
	Distrib *distrib.Pool
}

// Server is the HTTP face of a job engine.
type Server struct {
	engine  *jobs.Engine
	key     *rsa.PrivateKey
	distrib *distrib.Pool
	mux     *http.ServeMux

	mu     sync.Mutex
	traces map[string]StoredTrace
	order  []string
	nextID int
}

// StoredTrace is one uploaded trace.
type StoredTrace struct {
	// Name is the handle job submissions reference.
	Name string
	// Header is the archive metadata the trace arrived with.
	Header trace.Header
	// Trace is the decoded command trace.
	Trace command.Trace
}

// New builds a server over the engine.
func New(opts Options) *Server {
	if opts.Engine == nil {
		opts.Engine = jobs.New(jobs.Options{})
	}
	s := &Server{
		engine:  opts.Engine,
		key:     opts.DeveloperKey,
		distrib: opts.Distrib,
		mux:     http.NewServeMux(),
		traces:  make(map[string]StoredTrace),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /api/traces", s.handleUploadTrace)
	s.mux.HandleFunc("GET /api/traces", s.handleListTraces)
	s.mux.HandleFunc("POST /api/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /api/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /api/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /api/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("POST /api/jobs/{id}/cancel", s.handleCancelJob)
	s.mux.HandleFunc("POST /api/jobs/{id}/resume", s.handleResumeJob)
	s.mux.HandleFunc("POST /api/reports", s.handleIngestReport)
	if s.distrib != nil {
		s.mux.Handle("/api/distrib/", http.StripPrefix("/api/distrib", s.distrib.Handler()))
	}
	return s
}

// Engine returns the engine the server fronts (for drain on shutdown).
func (s *Server) Engine() *jobs.Engine { return s.engine }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// AddTrace stores a trace under a name, making it submittable by
// reference; an empty name derives one from the header (scenario name,
// else "trace-N"). It returns the stored handle.
func (s *Server) AddTrace(name string, h trace.Header, tr command.Trace) StoredTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		name = h.Scenario
	}
	if name == "" {
		s.nextID++
		name = fmt.Sprintf("trace-%d", s.nextID)
	}
	st := StoredTrace{Name: name, Header: h, Trace: tr}
	if _, exists := s.traces[name]; !exists {
		s.order = append(s.order, name)
	}
	s.traces[name] = st
	return st
}

// Trace looks a stored trace up by name.
func (s *Server) Trace(name string) (StoredTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.traces[name]
	return st, ok
}

// Traces lists stored traces in upload order.
func (s *Server) Traces() []StoredTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StoredTrace, len(s.order))
	for i, name := range s.order {
		out[i] = s.traces[name]
	}
	return out
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.engine.Draining() {
		// Draining is still healthy — in-flight work is finishing — but
		// load balancers should stop routing new submissions here.
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.engine.WriteMetrics(w)
	if s.distrib != nil {
		s.distrib.WriteMetrics(w)
	}
}

// traceView is the JSON shape traces list/upload responses use.
type traceView struct {
	Name     string `json:"name"`
	App      string `json:"app,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	StartURL string `json:"startURL"`
	Commands int    `json:"commands"`
}

func viewTrace(st StoredTrace) traceView {
	return traceView{
		Name:     st.Name,
		App:      st.Header.App,
		Scenario: st.Header.Scenario,
		StartURL: st.Trace.StartURL,
		Commands: len(st.Trace.Commands),
	}
}

func (s *Server) handleUploadTrace(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > maxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, errors.New("trace too large"))
		return
	}
	h, tr, err := trace.ReadAuto(bytes.NewReader(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	st := s.AddTrace(r.URL.Query().Get("name"), h, tr)
	writeJSON(w, http.StatusCreated, viewTrace(st))
}

func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	stored := s.Traces()
	views := make([]traceView, len(stored))
	for i, st := range stored {
		views[i] = viewTrace(st)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	req, err := DecodeJobRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := s.specFor(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, spec)
}

// submit enqueues a spec.
func (s *Server) submit(w http.ResponseWriter, spec jobs.Spec) {
	job, err := s.engine.Submit(spec)
	if err != nil {
		engineError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusCreated, viewJob(job))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	all := s.engine.Jobs()
	views := make([]JobView, len(all))
	for i, job := range all {
		views[i] = viewJob(job)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.engine.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, viewJob(job))
}

// handleJobEvents streams the job's event bus as server-sent events:
// the full history first (late subscribers see every step), then live
// events, one SSE frame per JSON event line, until the job's stream
// completes or the client goes away.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, err := s.engine.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch, stop := job.Events().Subscribe(0)
	defer stop()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // stream complete
			}
			line, err := jobs.EncodeEvent(ev)
			if err != nil {
				return
			}
			// line ends with '\n'; the extra newline closes the frame.
			fmt.Fprintf(w, "event: %s\ndata: %s\n", ev.EventType(), line)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.engine.Cancel(id, nil); err != nil {
		engineError(w, err, http.StatusInternalServerError)
		return
	}
	job, err := s.engine.Get(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, viewJob(job))
}

func (s *Server) handleResumeJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.engine.Resume(r.PathValue("id"))
	if err != nil {
		engineError(w, err, http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusCreated, viewJob(job))
}

// handleIngestReport is the AUsER endpoint (the paper's Fig. 1 server
// side): a user experience report arrives — sealed to the developers'
// key or in the clear — its trace is stored, and a report-ingestion job
// (replay → minimize → classify) is enqueued.
func (s *Server) handleIngestReport(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	rep, err := s.decodeReport(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	st := s.AddTrace("", trace.Header{Scenario: "report", Recorder: "auser"}, rep.Trace)
	s.submit(w, jobs.Spec{
		Kind:        jobs.KindReport,
		Trace:       rep.Trace,
		TraceName:   st.Name,
		Description: rep.Description,
	})
}

// decodeReport parses an ingestion body: a sealed auser.Envelope (when
// the server holds the developers' key) or a plain JSON report.
func (s *Server) decodeReport(body []byte) (*auser.Report, error) {
	var probe struct {
		WrappedKey []byte `json:"wrapped_key"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, fmt.Errorf("serve: decoding report: %w", err)
	}
	if len(probe.WrappedKey) > 0 {
		if s.key == nil {
			return nil, errors.New("serve: sealed report but no developer key configured")
		}
		env, err := auser.DecodeEnvelope(body)
		if err != nil {
			return nil, err
		}
		return auser.Open(env, s.key)
	}
	var rep auser.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("serve: decoding report: %w", err)
	}
	if len(rep.Trace.Commands) == 0 && rep.Trace.StartURL == "" {
		return nil, errors.New("serve: report carries no trace")
	}
	return &rep, nil
}

// ---- JSON plumbing ----

// JobView is the JSON shape of a job in API responses.
type JobView struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	Trace string `json:"trace,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	Error     string `json:"error,omitempty"`
	Cause     string `json:"cause,omitempty"`
	ResumedBy string `json:"resumedBy,omitempty"`

	// Played/Failed summarize a (possibly partial) replay result.
	Played int `json:"played,omitempty"`
	Failed int `json:"failed,omitempty"`
	// Findings counts a finished campaign's findings.
	Findings int `json:"findings,omitempty"`
	// Verdict is a finished report-ingestion job's classification.
	Verdict string `json:"verdict,omitempty"`
}

func viewJob(job *jobs.Job) JobView {
	v := JobView{
		ID:        job.ID,
		Kind:      job.Spec.Kind.String(),
		State:     job.State().String(),
		Trace:     job.Spec.TraceName,
		Created:   job.Created(),
		ResumedBy: job.ResumedBy(),
	}
	if t := job.Started(); !t.IsZero() {
		v.Started = &t
	}
	if t := job.Finished(); !t.IsZero() {
		v.Finished = &t
	}
	if err := job.Err(); err != nil {
		v.Error = err.Error()
	}
	if cause := job.CancelCause(); cause != nil {
		v.Cause = cause.Error()
	}
	if res := job.Result(); res != nil {
		v.Played = res.Played
		v.Failed = res.Failed
	}
	if rep := job.Report(); rep != nil {
		v.Findings = len(rep.Findings)
	}
	if cls := job.Classification(); cls != nil {
		v.Verdict = cls.Verdict
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// engineError answers an engine error with the status its sentinel
// names, else with otherwise. Backpressure is a 503 plus a Retry-After
// hint, never silent dropping, so well-behaved clients pace their
// retries instead of hammering a full queue.
func engineError(w http.ResponseWriter, err error, otherwise int) {
	status := otherwise
	switch {
	case errors.Is(err, jobs.ErrInvalidSpec):
		status = http.StatusBadRequest
	case errors.Is(err, jobs.ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, jobs.ErrJobFinished), errors.Is(err, jobs.ErrNotResumable):
		status = http.StatusConflict
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrDraining):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	}
	httpError(w, status, err)
}
