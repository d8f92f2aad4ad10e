// Command pfserve exposes every engine-registered mining algorithm as a
// concurrent HTTP job service: submit a job, poll or stream its progress,
// fetch the mined patterns, cancel it. Jobs run on a bounded worker pool
// with per-job deadlines, so the server caps both CPU use and the number
// of datasets resident in memory.
//
//	pfserve -addr :8080 -workers 4 -queue 32 -timeout 2m
//
//	# submit a Diag_30 Pattern-Fusion job
//	curl -s localhost:8080/jobs -d '{
//	  "algorithm": "fusion",
//	  "dataset":   {"generator": "diag", "n": 30},
//	  "options":   {"min_count": 15, "k": 20}
//	}'
//	# poll it, stream its progress, fetch the patterns, cancel it
//	curl -s localhost:8080/jobs/job-1
//	curl -sN localhost:8080/jobs/job-1/events?follow=1
//	curl -s localhost:8080/jobs/job-1/result?top=5
//	curl -s -X DELETE localhost:8080/jobs/job-1
//
//	# upload a dataset once (gzip + CSV auto-detected), mine it by name
//	curl -s -X PUT localhost:8080/datasets/census --data-binary @census.csv.gz
//	curl -s localhost:8080/datasets
//	curl -s localhost:8080/jobs -d '{
//	  "algorithm": "fusion",
//	  "dataset":   {"catalog": "census"},
//	  "options":   {"min_support": 0.05, "k": 50}
//	}'
//
//	# stream new rows into it and re-mine on arrival (docs/streaming.md)
//	curl -s -X POST localhost:8080/datasets/census/rows --data-binary @new-rows.csv.gz
//	curl -s -X PUT localhost:8080/datasets/census/monitor -d '{
//	  "threshold_rows": 100, "incremental": true,
//	  "options": {"min_support": 0.05, "k": 50}
//	}'
//	curl -s localhost:8080/datasets/census/monitor
//
// Running with -data-dir additionally makes the server restart-safe:
// job records, results and the dataset catalog persist under
// <data-dir>/state, and a restart re-serves completed results and
// re-runs interrupted jobs (byte-identically — the engine is
// deterministic). -auth-config enables per-tenant API keys and quotas,
// and GET /metrics exposes Prometheus metrics. On SIGINT/SIGTERM the
// server drains: admission stops (503), running jobs get -drain to
// finish, the rest are checkpointed for the next start.
//
// Started with -peers, the server is a distributed coordinator: each job
// is split into task-block shards leased to the listed worker pfserves
// over this same API, with the dataset shipped once per worker (content-
// hash keyed) and the partial reports merged byte-identically to the
// single-node answer. Failed leases are retried (-shard-retries) and
// repeatedly failing workers are quarantined for the rest of the job.
//
//	pfserve -addr :8080 -peers http://w1:8081,http://w2:8082
//
// See internal/server for the full API, docs/operations.md for the
// operator runbook (metrics reference, on-disk layout, auth config),
// and docs/formats.md for the accepted dataset formats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	_ "repro/internal/engine/all"
	"repro/internal/server"
)

// A client has readHeaderTimeout to send a request's headers, and an idle
// kept-alive connection is closed after idleTimeout. Bodies and responses
// have no deadline: uploads may be large, and an event stream lasts as
// long as its job.
const readHeaderTimeout, idleTimeout = 5 * time.Second, 2 * time.Minute

func httpServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 2, "concurrent mining jobs (and max in-flight datasets)")
		queue    = flag.Int("queue", 16, "max queued jobs before submissions are rejected")
		timeout  = flag.Duration("timeout", 5*time.Minute, "default and maximum per-job run time")
		maxCells = flag.Int("max-cells", 64<<20, "max dataset cells (|D|·|I|) per job; 0 = server default, negative = unlimited")
		dataDir  = flag.String("data-dir", "", "directory for {\"path\": ...} dataset specs and the durable job/catalog store (empty = stateless, in-memory)")
		maxPar   = flag.Int("max-parallelism", 0, "cap on each job's mining parallelism; 0 = GOMAXPROCS/workers, negative = uncapped")
		maxUp    = flag.Int64("max-upload", 0, "max PUT /datasets/{name} body bytes; 0 = 32 MiB default, negative disables uploads")
		maxApp   = flag.Int64("max-append", 0, "max POST /datasets/{name}/rows body bytes; 0 = the -max-upload cap, negative disables appends")
		authCfg  = flag.String("auth-config", "", "tenant config file enabling API keys + quotas (see docs/operations.md; empty = open access)")
		drain    = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight jobs before they are checkpointed")

		peers         = flag.String("peers", "", "comma-separated worker pfserve base URLs; non-empty makes this server a distributed coordinator")
		shardsPerPeer = flag.Int("shards-per-peer", 0, "concurrent shard leases per peer (0 = default 2)")
		shardTimeout  = flag.Duration("shard-timeout", 0, "per-attempt shard lease timeout (0 = bounded by the job deadline only)")
		shardRetries  = flag.Int("shard-retries", 0, "re-lease attempts per failed shard (0 = default 3)")
		peerKey       = flag.String("peer-key", "", "API key sent on coordinator→peer calls (for authenticated worker rings)")
	)
	flag.Parse()

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxCells:       *maxCells,
		DataDir:        *dataDir,
		MaxParallelism: *maxPar,
		MaxUploadBytes: *maxUp,
		MaxAppendBytes: *maxApp,
		ShardsPerPeer:  *shardsPerPeer,
		ShardTimeout:   *shardTimeout,
		ShardRetries:   *shardRetries,
		PeerAPIKey:     *peerKey,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if *dataDir != "" {
		store, err := server.OpenStore(filepath.Join(*dataDir, "state"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfserve: %v\n", err)
			os.Exit(1)
		}
		cfg.Store = store
	}
	if *authCfg != "" {
		auth, err := server.LoadAuth(*authCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfserve: %v\n", err)
			os.Exit(1)
		}
		cfg.Auth = auth
	}

	mgr := server.NewManager(cfg)
	srv := httpServer(*addr, server.Handler(mgr))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "pfserve: listening on %s (workers=%d queue=%d timeout=%v persistent=%v auth=%v peers=%d)\n",
		*addr, *workers, *queue, *timeout, cfg.Store != nil, cfg.Auth != nil, len(cfg.Peers))

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "pfserve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		fmt.Fprintf(os.Stderr, "pfserve: draining (up to %v) ...\n", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		unfinished := mgr.Shutdown(drainCtx)
		cancel()
		if unfinished > 0 {
			fmt.Fprintf(os.Stderr, "pfserve: checkpointed %d unfinished job(s) for the next start\n", unfinished)
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Shutdown(shutCtx)
		cancel()
		fmt.Fprintln(os.Stderr, "pfserve: shutdown complete")
	}
}
