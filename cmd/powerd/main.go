// Command powerd serves the hlpower estimation engines over HTTP:
// bounded admission with load shedding, one flight per distinct
// request, run once on a budget of its own (-timeout, -max-steps) and
// answered with a typed error when it fails, and graceful drain on
// SIGTERM.
//
// Usage:
//
//	powerd -addr :8433 -workers 4 -queue 64 -timeout 5s
//
// Chaos testing: -fault-prob injects random budget trips into every
// request's estimation path, so clients see each trip as its typed
// 503 error while the cache is bypassed.
//
// Cluster mode: give every node an identity and the full member list
// (its own entry included — all nodes can share one list):
//
//	powerd -addr :8433 -node n0=http://host0:8433 \
//	    -peers n0=http://host0:8433,n1=http://host1:8433,n2=http://host2:8433
//
// Nodes forward each request to the consistent-hash owner of its
// content key, so the ring shares one logical estimate cache; a dead
// or slow owner sheds cleanly to local compute.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the default mux, served only when -pprof is set
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/cluster"
	"hlpower/internal/jobs"
	"hlpower/internal/powerd"
)

func main() {
	var (
		addr      = flag.String("addr", ":8433", "listen address")
		workers   = flag.Int("workers", 0, "concurrent estimation slots (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "max queued requests before shedding with 429")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-flight budget deadline")
		maxSteps  = flag.Int64("max-steps", 50_000_000, "per-flight step allowance")
		faultProb = flag.Float64("fault-prob", 0, "chaos: per-check fault injection probability")
		faultSeed = flag.Int64("fault-seed", 1, "chaos: fault plan seed")
		memoBytes = flag.Int64("memo-bytes", 0, "estimate-cache byte budget, also split evenly into the running optimization jobs' own caches (0 = 64 MiB default, negative = disable memoization)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
		nodeSpec  = flag.String("node", "", "cluster mode: this node's id=url (empty = single-node)")
		peerSpec  = flag.String("peers", "", "cluster mode: comma-separated id=url member list (may include this node)")

		jobDir      = flag.String("job-dir", "", "directory for optimization-job checkpoints (empty = in-memory, lost on restart)")
		jobWorkers  = flag.Int("job-workers", 0, "concurrent optimization jobs (0 = default 2)")
		jobQueue    = flag.Int("job-queue", 0, "queued optimization jobs before shedding with 429 (0 = default 16)")
		jobStall    = flag.Duration("job-stall", 0, "per-candidate watchdog timeout (0 = default 30s)")
		jobCkpt     = flag.Int("job-checkpoint-every", 0, "candidates between job checkpoints (0 = default 8)")
		jobSteps    = flag.Int64("job-steps", 0, "per-candidate step budget (0 = -max-steps)")
		jobMaxSteps = flag.Int64("job-total-steps", 0, "aggregate step ceiling per job (0 = unlimited)")

		codegenAfter = flag.Int("codegen-after", 0, "requests before a hot netlist is promoted to the specialized codegen kernel (0 = default 8, negative = disable)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain window: max wait for in-flight requests on shutdown, and the Retry-After hint sent mid-drain")
	)
	flag.Parse()

	cfg := powerd.DefaultConfig()
	if *workers > 0 {
		cfg.Workers = *workers
	}
	cfg.QueueDepth = *queue
	cfg.RequestTimeout = *timeout
	cfg.MaxSteps = *maxSteps
	cfg.MemoMaxBytes = *memoBytes
	cfg.DrainTimeout = *drainTimeout
	cfg.JobWorkers = *jobWorkers
	cfg.JobQueueDepth = *jobQueue
	cfg.JobStallTimeout = *jobStall
	cfg.JobCheckpointEvery = *jobCkpt
	cfg.JobEvalSteps = *jobSteps
	cfg.JobMaxTotalSteps = *jobMaxSteps
	cfg.CodegenAfter = *codegenAfter
	if *jobDir != "" {
		store, err := jobs.NewFileStore(*jobDir)
		if err != nil {
			log.Fatalf("-job-dir: %v", err)
		}
		cfg.JobStore = store
	}

	if *pprofAddr != "" {
		// Importing net/http/pprof registers its handlers on the default
		// mux only; the estimation mux stays clean, and the profiler is
		// reachable solely on its own (typically loopback) listener.
		go func() {
			psrv := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof serve: %v", err)
			}
		}()
	}

	srv := powerd.NewServer(cfg)
	if *nodeSpec != "" {
		self, err := parsePeer(*nodeSpec)
		if err != nil {
			log.Fatalf("-node: %v", err)
		}
		peers, err := parsePeers(*peerSpec)
		if err != nil {
			log.Fatalf("-peers: %v", err)
		}
		if err := srv.EnableCluster(cluster.Config{Self: self, Peers: peers}); err != nil {
			log.Fatalf("cluster: %v", err)
		}
		log.Printf("cluster mode: node %s, ring %v", self.ID, srv.Cluster().Members())
	} else if *peerSpec != "" {
		log.Fatal("-peers requires -node")
	}
	if *faultProb > 0 {
		srv.SetFaultPlan(budget.FaultPlan{Prob: *faultProb, Seed: *faultSeed})
		log.Printf("chaos armed: fault probability %.3f (seed %d)", *faultProb, *faultSeed)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("powerd listening on %s (workers %d, queue %d, timeout %s)",
		*addr, cfg.Workers, cfg.QueueDepth, cfg.RequestTimeout)

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("signal received; draining (max %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop admitting estimation work first, then close listeners: late
	// arrivals between the two get a clean 503 instead of a reset.
	drainErr := srv.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, drainErr)
		os.Exit(1)
	}
	log.Printf("drained cleanly")
}

// parsePeer parses one id=url member spec.
func parsePeer(spec string) (cluster.Peer, error) {
	id, url, ok := strings.Cut(spec, "=")
	if !ok || id == "" || url == "" {
		return cluster.Peer{}, fmt.Errorf("want id=url, got %q", spec)
	}
	return cluster.Peer{ID: id, URL: strings.TrimSuffix(url, "/")}, nil
}

// parsePeers parses the comma-separated member list.
func parsePeers(spec string) ([]cluster.Peer, error) {
	if spec == "" {
		return nil, nil
	}
	var peers []cluster.Peer
	for _, part := range strings.Split(spec, ",") {
		p, err := parsePeer(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		peers = append(peers, p)
	}
	return peers, nil
}
