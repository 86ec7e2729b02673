// Command serd runs the SER estimation service: a long-running HTTP daemon
// serving analyses (parse-once circuit cache, fingerprint-memoized reports,
// NDJSON tile streaming, admission control), optionally coordinating sharded
// sweeps over a worker fleet — or, in loadgen mode, a load generator
// measuring a running daemon's cached-request throughput and latency.
//
// Serve mode:
//
//	serd [-addr :8347] [flags]
//
//	-addr :8347            listen address
//	-pool 0                concurrent engine sweeps (0 = all cores)
//	-queue 0               admission queue depth past the pool (0 = 4× pool, -1 = none)
//	-circuit-cache-mb 256  parsed-circuit cache bound
//	-report-cache-mb 64    memoized-report cache bound, in encoded response
//	                       bytes (~6.9 MB per s38417 report: about nine fit)
//	-workers ""            comma-separated worker base URLs (coordinator mode)
//	-shards-per-worker 2   shards the coordinator cuts per worker
//	-shard-attempts 0      dispatch attempts per shard (0 = 2 + workers)
//	-checkpoint-dir ""     durable shard-commit directory (coordinator mode)
//	-shard-timeout 0       per-shard-attempt deadline (0 = none)
//	-retry-backoff 25ms    base redispatch delay (exponential, jittered)
//	-retry-seed 1          deterministic jitter seed
//	-breaker-threshold 2   consecutive failures that open a worker breaker
//	-breaker-probe 500ms   healthz probe interval for open workers
//	-hedge-delay 50ms      straggler age before hedged dispatch (-1ns = off)
//	-drain-timeout 15s     graceful-drain bound on SIGTERM/SIGINT
//
// Endpoints: POST /v1/analyze (JSON in; one JSON document out, or NDJSON
// tiles with "stream": true or Accept: application/x-ndjson), POST
// /v1/shard (the coordinator/worker protocol), GET /v1/stats, GET /healthz
// and GET /v1/healthz (the breaker probe target). On SIGTERM or SIGINT the
// daemon stops accepting connections and drains in-flight requests for up
// to -drain-timeout before exiting.
//
// Analyze mode (one-shot client):
//
//	serd -mode analyze -target http://host:8347 [flags]
//
//	-target URL          daemon to query (required)
//	-profile s38417      circuit profile to analyze
//	-frames 1            frames option of the request
//	-allow-partial       accept a degraded (partial) result
//
// Prints the AnalyzeResponse JSON. The exit code is the result contract:
// 0 is a complete report, 3 a partial (degraded) one — only possible with
// -allow-partial, when the coordinator abandoned shards whose workers
// exhausted the retry budget; the uncovered node ranges are disclosed in
// the response — so scripts can distinguish "trustworthy but incomplete"
// from success (0) and from failure (4) without parsing the body.
//
// Loadgen mode:
//
//	serd -mode loadgen -target http://host:8347 [flags]
//
//	-target URL          daemon to load (required)
//	-profile s38417      circuit profile every request analyzes
//	-frames 1            frames option of the generated request
//	-concurrency 8       closed-loop clients
//	-duration 10s        measured phase length
//	-out bench-serd.json result artifact path ("" = stdout only)
//
// The generator primes the daemon once (parsing and sweeping the circuit,
// populating both caches) and then measures the cached path — repeat sweeps
// are fingerprint cache hits — reporting requests/sec and p50/p90/p99
// latency, written as one JSON document to -out.
//
// Exit codes: 0 success, 2 usage error, 3 partial result (analyze mode),
// 4 runtime error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serd"
)

func main() {
	var (
		mode = flag.String("mode", "serve", "serve | loadgen | analyze")

		addr            = flag.String("addr", ":8347", "listen address (serve)")
		pool            = flag.Int("pool", 0, "concurrent engine sweeps (0 = all cores)")
		queue           = flag.Int("queue", 0, "admission queue depth past the pool (0 = 4x pool, -1 = none)")
		circuitCacheMB  = flag.Int64("circuit-cache-mb", 256, "parsed-circuit cache bound (MiB)")
		reportCacheMB   = flag.Int64("report-cache-mb", 64, "memoized-report cache bound (MiB of encoded JSON+NDJSON response bytes, ~6.9 MB per s38417 report)")
		workers         = flag.String("workers", "", "comma-separated worker base URLs (coordinator mode)")
		shardsPerWorker = flag.Int("shards-per-worker", 2, "shards the coordinator cuts per worker")
		shardAttempts   = flag.Int("shard-attempts", 0, "dispatch attempts per shard (0 = 2 + workers)")
		checkpointDir   = flag.String("checkpoint-dir", "", "durable shard-commit directory (coordinator mode)")
		ecoCacheDir     = flag.String("eco-cache", "", "directory-backed incremental re-estimation cache (local sweeps)")
		shardTimeout    = flag.Duration("shard-timeout", 0, "per-shard-attempt deadline (0 = none)")
		retryBackoff    = flag.Duration("retry-backoff", 0, "base shard redispatch delay (0 = 25ms)")
		retrySeed       = flag.Uint64("retry-seed", 0, "deterministic retry-jitter seed (0 = 1)")
		breakerThresh   = flag.Int("breaker-threshold", 0, "consecutive failures that open a worker breaker (0 = 2)")
		breakerProbe    = flag.Duration("breaker-probe", 0, "healthz probe interval for open workers (0 = 500ms)")
		hedgeDelay      = flag.Duration("hedge-delay", 0, "straggler age before hedged dispatch (0 = 50ms, negative = off)")
		drainTimeout    = flag.Duration("drain-timeout", 15*time.Second, "graceful-drain bound on SIGTERM")

		target       = flag.String("target", "", "daemon base URL (loadgen, analyze)")
		profile      = flag.String("profile", "s38417", "circuit profile the request analyzes")
		frames       = flag.Int("frames", 1, "frames option of the generated request")
		allowPartial = flag.Bool("allow-partial", false, "accept a degraded partial result (analyze)")
		concurrency  = flag.Int("concurrency", 8, "closed-loop loadgen clients")
		duration     = flag.Duration("duration", 10*time.Second, "loadgen measured phase")
		out          = flag.String("out", "bench-serd.json", "loadgen result artifact path (\"\" = stdout only)")
	)
	flag.Parse()

	switch *mode {
	case "serve":
		os.Exit(serve(*addr, serd.Config{
			PoolSize:          *pool,
			MaxQueue:          *queue,
			CircuitCacheBytes: *circuitCacheMB << 20,
			ReportCacheBytes:  *reportCacheMB << 20,
			Workers:           splitList(*workers),
			ShardsPerWorker:   *shardsPerWorker,
			ShardAttempts:     *shardAttempts,
			CheckpointDir:     *checkpointDir,
			ECOCacheDir:       *ecoCacheDir,
			ShardTimeout:      *shardTimeout,
			RetryBackoff:      *retryBackoff,
			RetrySeed:         *retrySeed,
			BreakerThreshold:  *breakerThresh,
			BreakerProbe:      *breakerProbe,
			HedgeDelay:        *hedgeDelay,
		}, *drainTimeout))
	case "loadgen":
		os.Exit(loadgen(*target, *profile, *frames, *concurrency, *duration, *out))
	case "analyze":
		os.Exit(analyze(*target, *profile, *frames, *allowPartial))
	default:
		fmt.Fprintf(os.Stderr, "serd: unknown -mode %q (serve | loadgen | analyze)\n", *mode)
		os.Exit(2)
	}
}

// analyze posts one analyze request and prints the response JSON. The exit
// code carries the result contract: 0 complete, 2 usage, 3 partial
// (degraded — the response discloses the uncovered node ranges), 4 failure.
func analyze(target, profile string, frames int, allowPartial bool) int {
	if target == "" {
		fmt.Fprintln(os.Stderr, "serd: -mode analyze requires -target")
		return 2
	}
	body, err := json.Marshal(serd.AnalyzeRequest{
		Circuit:      serd.CircuitSource{Profile: profile},
		Options:      serd.Options{Frames: frames},
		AllowPartial: allowPartial,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serd: %v\n", err)
		return 4
	}
	resp, err := http.Post(target+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "serd: %v\n", err)
		return 4
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serd: %v\n", err)
		return 4
	}
	os.Stdout.Write(data)
	switch resp.StatusCode {
	case http.StatusOK:
		return 0
	case http.StatusPartialContent:
		fmt.Fprintln(os.Stderr, "serd: partial result (some node ranges uncovered)")
		return 3
	default:
		fmt.Fprintf(os.Stderr, "serd: HTTP %d\n", resp.StatusCode)
		return 4
	}
}

// splitList parses a comma-separated flag into its non-empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// serve runs the daemon until SIGTERM/SIGINT, then drains gracefully:
// listeners close immediately, in-flight analyses and streams run to
// completion (or the drain bound), and only then does the process exit.
func serve(addr string, cfg serd.Config, drain time.Duration) int {
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "serd: %v\n", err)
			return 4
		}
	}
	s := serd.New(cfg)
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serd: listening on %s (pool=%d workers=%d)", addr, cfg.PoolSize, len(cfg.Workers))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "serd: %v\n", err)
		return 4
	case sig := <-sigc:
		log.Printf("serd: %v received, draining for up to %v", sig, drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("serd: drain incomplete: %v", err)
		_ = srv.Close()
		return 4
	}
	log.Printf("serd: drained cleanly")
	return 0
}

// loadgen drives a running daemon and writes the bench-serd.json artifact.
func loadgen(target, profile string, frames, concurrency int, duration time.Duration, out string) int {
	if target == "" {
		fmt.Fprintln(os.Stderr, "serd: -mode loadgen requires -target")
		return 2
	}
	req := serd.AnalyzeRequest{
		Circuit: serd.CircuitSource{Profile: profile},
		Options: serd.Options{Frames: frames},
	}
	res, err := serd.Loadgen(context.Background(), serd.LoadgenConfig{
		Target:      target,
		Request:     req,
		Concurrency: concurrency,
		Duration:    duration,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serd: loadgen: %v\n", err)
		if res == nil {
			return 4
		}
	}
	data, merr := json.MarshalIndent(res, "", "  ")
	if merr != nil {
		fmt.Fprintf(os.Stderr, "serd: %v\n", merr)
		return 4
	}
	data = append(data, '\n')
	os.Stdout.Write(data)
	if out != "" {
		if werr := os.WriteFile(out, data, 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "serd: %v\n", werr)
			return 4
		}
	}
	if err != nil {
		return 4
	}
	return 0
}
