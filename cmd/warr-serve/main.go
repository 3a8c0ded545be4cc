// warr-serve is replay as a service: the long-running daemon face of
// the shared job engine. It accepts trace uploads and job submissions
// over HTTP/JSON, streams step-by-step replay events over SSE, supports
// cancel and resume, ingests AUsER user experience reports (replay →
// minimize → classify), and exposes Prometheus-style metrics. SIGINT or
// SIGTERM triggers a graceful drain: queued and running jobs finish, or
// — past the drain timeout — are checkpointed resumable, never dropped.
//
// Usage:
//
//	warr-serve                                   # listen on :8731
//	warr-serve -addr :9000 -workers 4 -queue 128
//	warr-serve -bench BENCH_BASELINE.json        # export pinned bench counters
//	warr-serve -devkey developer_key.pem         # accept sealed AUsER reports
//	warr-serve -journal jobs.journal             # crash-safe: journaled jobs resume on reboot
//	warr-serve -faults drop:lease/2;crash:w1@shard3  # chaos-test the distrib protocol
//
// The API:
//
//	GET  /healthz                 ok | draining
//	GET  /metrics                 Prometheus text format
//	POST /api/traces?name=N       upload a trace archive
//	GET  /api/traces              list uploaded traces
//	POST /api/jobs                submit {"kind": ..., "trace": N, ...}
//	GET  /api/jobs                list jobs
//	GET  /api/jobs/{id}           job status
//	GET  /api/jobs/{id}/events    SSE stream of the job's JSON events
//	POST /api/jobs/{id}/cancel    stop at the next command boundary
//	POST /api/jobs/{id}/resume    continue a cancelled job as a new job
//	POST /api/reports             ingest an AUsER report (plain or sealed)
//	POST /api/distrib/lease       warr-worker shard lease poll
//	POST /api/distrib/complete    worker shard completion
//	POST /api/distrib/heartbeat   worker liveness
//
// The /api/distrib endpoints are the distributed-campaign coordinator:
// point warr-worker processes at this server and campaign jobs are
// sharded across them, falling back to in-process execution whenever no
// worker is connected. A lease carries the shard's traces and the depth
// of their shared prefix; no world image crosses the wire.
package main

import (
	"context"
	"crypto/rsa"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/dslab-epfl/warr/internal/distrib"
	"github.com/dslab-epfl/warr/internal/faults"
	"github.com/dslab-epfl/warr/internal/jobs"
	"github.com/dslab-epfl/warr/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8731", "listen address")
	workers := flag.Int("workers", 2, "job worker pool size")
	queue := flag.Int("queue", 64, "bounded job queue depth (full queue = HTTP 503)")
	bench := flag.String("bench", "", "BENCH_BASELINE.json to export on /metrics (optional)")
	devkey := flag.String("devkey", "", "PEM RSA private key for sealed AUsER reports (optional)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM; jobs still running after it are checkpointed resumable")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "distributed-campaign lease TTL; a warr-worker silent this long forfeits its shards")
	journal := flag.String("journal", "", "write-ahead job journal file; submissions are journaled before they run and a killed server resumes them on the next boot (optional)")
	faultSched := flag.String("faults", "", "fault schedule injected into the coordinator's distrib endpoints, e.g. drop:lease/2;delay:complete/50ms;crash:w1@shard3 (testing)")
	flag.Parse()

	if err := run(*addr, *workers, *queue, *bench, *devkey, *journal, *faultSched, *drainTimeout, *leaseTTL); err != nil {
		fmt.Fprintln(os.Stderr, "warr-serve:", err)
		os.Exit(1)
	}
}

func run(addr string, workers, queue int, bench, devkey, journal, faultSched string, drainTimeout, leaseTTL time.Duration) error {
	popts := distrib.PoolOptions{LeaseTTL: leaseTTL, Logf: log.Printf}
	if faultSched != "" {
		sched, err := faults.Parse(faultSched)
		if err != nil {
			return fmt.Errorf("parsing -faults: %w", err)
		}
		popts.Faults = faults.NewInjector(sched, log.Printf)
		log.Printf("warr-serve injecting faults: %s", sched)
	}
	pool := distrib.NewPool(popts)
	eopts := jobs.Options{Workers: workers, QueueDepth: queue, Distributor: pool}
	var recovered []jobs.RecoveredJob
	if journal != "" {
		j, rec, err := jobs.OpenJournal(journal, log.Printf)
		if err != nil {
			return err
		}
		defer j.Close()
		eopts.Journal = j
		recovered = rec
	}
	engine := jobs.New(eopts)
	if n := len(engine.Revive(recovered)); n > 0 {
		log.Printf("warr-serve revived %d journaled job(s)", n)
	}
	if bench != "" {
		baseline, err := jobs.LoadBenchBaseline(bench)
		if err != nil {
			return fmt.Errorf("loading bench baseline: %w", err)
		}
		engine.SetBenchBaseline(baseline)
	}
	var key *rsa.PrivateKey
	if devkey != "" {
		k, err := loadPrivateKey(devkey)
		if err != nil {
			return fmt.Errorf("loading developer key: %w", err)
		}
		key = k
	}
	srv := serve.New(serve.Options{Engine: engine, DeveloperKey: key, Distrib: pool})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	log.Printf("warr-serve listening on %s (%d workers, queue depth %d)", ln.Addr(), workers, queue)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("warr-serve draining (budget %s): finishing in-flight jobs", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := engine.Drain(drainCtx); err != nil {
		log.Printf("warr-serve drain budget exhausted: unfinished jobs checkpointed resumable")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("warr-serve stopped")
	return nil
}

// loadPrivateKey reads an RSA private key from a PEM file (PKCS#1 or
// PKCS#8).
func loadPrivateKey(path string) (*rsa.PrivateKey, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(data)
	if block == nil {
		return nil, fmt.Errorf("%s: no PEM block", path)
	}
	if k, err := x509.ParsePKCS1PrivateKey(block.Bytes); err == nil {
		return k, nil
	}
	k, err := x509.ParsePKCS8PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rk, ok := k.(*rsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("%s: not an RSA key", path)
	}
	return rk, nil
}
