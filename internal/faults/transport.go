package faults

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"time"
)

// Transport is the client-side injection shim: an http.RoundTripper
// that classifies each outgoing request by its distrib wire path and
// applies the injector's verdict — delay before sending, drop instead
// of sending, corrupt the transferred body. Request bodies (completions)
// are corrupted on the way out; requests without one (lease polls) have
// their reply corrupted on the way back — either way the receiver's
// checksum or strict decoding must catch it.
// Requests on paths the classifier does not recognize pass through
// untouched, as does everything when Injector is nil.
type Transport struct {
	// Base performs the real round trip (default http.DefaultTransport).
	Base http.RoundTripper
	// Injector decides the faults. nil injects nothing.
	Injector *Injector
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	p, ok := Classify(req.URL.Path)
	if !ok {
		return base.RoundTrip(req)
	}
	act := t.Injector.Request(p)
	if act.Zero() {
		return base.RoundTrip(req)
	}
	if act.Delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(time.Duration(act.Delay)):
		}
	}
	if act.Drop {
		// The request never reaches the wire; drain the body so the
		// caller's connection bookkeeping stays clean.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, &Error{Path: p}
	}
	if act.Corrupt && req.Body != nil {
		data, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		data = CorruptBody(data)
		req.Body = io.NopCloser(bytes.NewReader(data))
		req.ContentLength = int64(len(data))
		act.Corrupt = false // the outbound transfer took the hit
	}
	resp, err := base.RoundTrip(req)
	if err != nil || !act.Corrupt {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(CorruptBody(data)))
	resp.ContentLength = int64(len(data))
	return resp, nil
}

// Classify maps a request URL path to its distrib wire path: the last
// segments of the coordinator mount ("…/lease", "…/complete",
// "…/heartbeat"). ok is false for anything else.
func Classify(urlPath string) (Path, bool) {
	switch {
	case strings.HasSuffix(urlPath, "/lease"):
		return PathLease, true
	case strings.HasSuffix(urlPath, "/complete"):
		return PathComplete, true
	case strings.HasSuffix(urlPath, "/heartbeat"):
		return PathHeartbeat, true
	}
	return "", false
}
