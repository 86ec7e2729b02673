// Package serd is the SER-as-a-service layer: a long-running HTTP daemon
// that parses and finalizes each circuit once (content-addressed cache),
// memoizes completed Reports by full request fingerprint, streams per-node
// result tiles as NDJSON with per-request cancellation and deadlines,
// bounds concurrent engine work with admission control, and optionally
// distributes site sweeps over worker daemons.
//
// # Why the distributed merge is deterministic
//
// The coordinator shards a sweep's node-ID space [0, N) into ranges and
// asks each worker for P_sensitized over one range (POST /v1/shard). The
// fold back into a single Report is bit-identical to a single-process run —
// not approximately, and not only in expectation — because of three
// properties the engine layer already guarantees:
//
//  1. Packing invariance: every site-major engine computes each site's
//     value independently of how sites are grouped into batches or ranges,
//     and writes it exactly once. A shard [lo, hi) therefore produces
//     exactly the float64 values positions lo..hi-1 of a full local sweep
//     would produce, at any worker count on the remote side.
//  2. Lossless transport: shard values cross the wire as raw IEEE-754 bit
//     patterns (math.Float64bits as JSON integers — the same convention as
//     the resume checkpoint files), so transport cannot perturb a bit.
//  3. Order-free merge: shard ranges are disjoint, so the fold is pure
//     placement — out[lo:hi] = shard — with no arithmetic and hence no
//     merge-order hazard. The only summation (TotalFIT) happens after the
//     merge, in ascending node-ID order, exactly as a local Run sums.
//
// Retries inherit the same argument: a shard recomputed after a worker
// failure yields the identical bits, so commit-once bookkeeping (the resume
// checkpoint machinery, file-backed or in-memory) only has to prevent
// double-commit accounting, never reconcile conflicting values. The request
// fingerprint deliberately excludes the shard range — every shard of one
// logical sweep fingerprints as that sweep — so all shards commit against
// one checkpoint identity, and a worker answering with a different
// fingerprint (version or model skew) is rejected rather than folded.
//
// The word-major monte-carlo engine is the deliberate exception: its kernel
// amortizes one good simulation per vector word across all sites, so
// sharding by site would duplicate that dominant cost in every shard. The
// coordinator runs sampling requests whole on the local engine pool.
package serd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"mime"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/circuitio"
	"repro/internal/eco"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/ser"
)

// Config configures a Server.
type Config struct {
	// PoolSize bounds concurrent engine sweeps (0 = GOMAXPROCS).
	PoolSize int
	// MaxQueue bounds requests waiting for a pool slot before the daemon
	// sheds load with 429 (0 = 4× pool size; negative = no queue, every
	// request past the pool is shed immediately).
	MaxQueue int
	// CircuitCacheBytes bounds the parsed-circuit cache (0 = 256 MiB).
	CircuitCacheBytes int64
	// ReportCacheBytes bounds the memoized-report cache by the encoded
	// response bytes it holds (0 = 64 MiB, about nine s38417 reports).
	ReportCacheBytes int64
	// Workers, when non-empty, turns the daemon into a coordinator: analytic
	// and exact sweeps are sharded over these worker base URLs
	// (http://host:port) via POST /v1/shard and folded bit-identically.
	Workers []string
	// ShardsPerWorker sets how many shards the coordinator cuts per worker
	// (0 = 2): more shards = finer retry granularity and better balance,
	// at more per-request overhead.
	ShardsPerWorker int
	// ShardAttempts bounds dispatch attempts per shard before the request
	// fails (0 = 2 + number of workers).
	ShardAttempts int
	// ECOCacheDir, when non-empty, opens a directory-backed eco.Cache and
	// attaches it to every eligible locally-run analysis (ser.AttachECO):
	// repeat and incrementally-edited circuits restore unchanged cones from
	// the cache instead of re-sweeping them. Coordinator-sharded sweeps
	// never consult it — shards cover ID ranges, not cone-hash keys — and
	// ineligible requests (biased sources, Monte Carlo SPs) run uncached.
	ECOCacheDir string
	// CheckpointDir, when non-empty, makes coordinator shard commits durable:
	// each sweep's progress lands in <dir>/<fingerprint>.ckpt and a retried
	// request re-dispatches only the missing ranges. Empty = in-memory
	// commit tracking (retry within one request only).
	CheckpointDir string
	// ShardTimeout bounds each shard dispatch attempt (0 = no per-attempt
	// deadline; the request deadline still applies). With it, a stalled
	// worker costs one attempt instead of the whole request.
	ShardTimeout time.Duration
	// RetryBackoff is the base delay before a failed shard is redispatched
	// (0 = 25ms). Attempt k waits base·2^(k-1) — capped at 64·base — scaled
	// by a deterministic jitter factor in [0.5, 1.5).
	RetryBackoff time.Duration
	// RetrySeed seeds the deterministic jitter stream (0 = 1). Two
	// coordinators with the same seed and failure history draw identical
	// backoff schedules — the hook chaos tests replay faults through.
	RetrySeed uint64
	// BreakerThreshold is the run of consecutive health-relevant failures
	// that opens a worker's circuit breaker (0 = 2).
	BreakerThreshold int
	// BreakerProbe is the interval between GET /v1/healthz probes of an
	// open worker (0 = 500ms). A probe success closes the breaker and the
	// worker rejoins the fleet without a coordinator restart.
	BreakerProbe time.Duration
	// HedgeDelay is how long a shard's only attempt must run before an idle
	// worker hedges it with a duplicate dispatch — first valid response
	// wins, the loser is cancelled (0 = 50ms; negative disables hedging).
	HedgeDelay time.Duration
	// Client is the coordinator's HTTP client (nil = http.DefaultClient).
	Client *http.Client
	// Logf receives operational log lines (nil = log.Printf).
	Logf func(format string, args ...any)
}

// Server is the serd HTTP front end. Create with New, expose via Handler.
type Server struct {
	cfg      Config
	circuits *circuitio.Cache
	reports  *reportCache
	adm      *admission
	coord    *coordinator
	eco      *eco.Cache // nil unless ECOCacheDir is set and opened
	logf     func(format string, args ...any)
	mux      *http.ServeMux
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	pool := cfg.PoolSize
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	queue := cfg.MaxQueue
	if queue == 0 {
		queue = 4 * pool
	} else if queue < 0 {
		queue = 0
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		cfg:      cfg,
		circuits: circuitio.New(cfg.CircuitCacheBytes),
		reports:  newReportCache(cfg.ReportCacheBytes),
		adm:      newAdmission(pool, queue),
		logf:     logf,
		mux:      http.NewServeMux(),
	}
	if len(cfg.Workers) > 0 {
		s.coord = newCoordinator(cfg, logf)
	}
	if cfg.ECOCacheDir != "" {
		cache, err := eco.Open(cfg.ECOCacheDir)
		if err != nil {
			// The cache is an accelerator, never a correctness dependency:
			// an unopenable directory degrades to uncached sweeps.
			logf("serd: ECO cache disabled: %v", err)
		} else {
			s.eco = cache
		}
	}
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/shard", s.handleShard)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// writeError emits the uniform JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// errStatus maps a pipeline error onto an HTTP status for non-streaming
// responses: load shedding is 429, a client-side cancellation 499 (nginx's
// convention), an expired request deadline 504, everything else 500 (bad
// requests were already rejected before admission).
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled):
		return 499
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// loadCircuit resolves a request's circuit through the parse-once cache,
// mapping the error classes onto HTTP statuses: an unknown hash is 404 (the
// client re-sends the full source), anything else a 400.
func (s *Server) loadCircuit(w http.ResponseWriter, src CircuitSource) (*netlist.Circuit, bool) {
	c, err := s.circuits.Load(src)
	if err != nil {
		if errors.Is(err, circuitio.ErrNotCached) {
			writeError(w, http.StatusNotFound, "%v", err)
		} else {
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return nil, false
	}
	return c, true
}

// handleAnalyze serves POST /v1/analyze: resolve the circuit (parse-once
// cache), serve from the report cache if the request matches an alias or,
// once the options are resolved, validated and fingerprinted, a memoized
// fingerprint; otherwise admit the request to the engine pool, run the
// sweep — locally or sharded over workers — encode the report once and
// memoize it if complete. The response is one JSON document, or an NDJSON
// tile stream when requested; writeReport sends it from the encoded report,
// except for the live stream, which sends the tiles as it encodes them.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "serd: bad analyze request: %v", err)
		return
	}
	c, ok := s.loadCircuit(w, req.Circuit)
	if !ok {
		return
	}
	stream := req.Stream || acceptsNDJSON(r.Header)

	// Cache hits are served without touching admission — a saturated engine
	// pool must never delay a map lookup. An alias hit skips Prepare too.
	alias := newAliasKey(c.ContentHash(), req.Options)
	if cr, ok := s.reports.lookup(alias); ok {
		writeReport(w, c, cr, stream, true)
		return
	}
	cfg, err := req.Options.config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ser.AttachECO(&cfg, s.eco) // only a local Run consults the cache
	p, err := ser.Prepare(c, cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info := p.Info()
	if cr, ok := s.reports.get(info.Fingerprint, alias); ok {
		writeReport(w, c, cr, stream, true)
		return
	}

	ctx := r.Context()
	if err := s.adm.acquire(ctx); err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	defer s.adm.release()

	if stream && s.coord == nil {
		// Local streaming path: tiles go out as the sweep finalizes them.
		s.streamLive(w, r, c, p, info)
		return
	}
	rep, uncovered, err := s.runReport(ctx, c, p, &req, info)
	if err != nil {
		// A canceled client is gone; don't log it as a failure.
		if !errors.Is(err, context.Canceled) {
			s.logf("serd: analyze %s engine=%s: %v", c.Name, info.Engine, err)
		}
		writeError(w, errStatus(err), "%v", err)
		return
	}
	cr, err := encodeReport(info, rep, uncovered)
	if err != nil {
		s.logf("serd: analyze %s engine=%s: %v", c.Name, info.Engine, err)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if len(uncovered) > 0 {
		// Degraded result: disclosed holes, HTTP 206, and never memoized —
		// a retried request must be able to produce the complete report.
		s.logf("serd: analyze %s engine=%s: partial result, %d uncovered range(s)", c.Name, info.Engine, len(uncovered))
	} else {
		s.reports.put(cr)
	}
	writeReport(w, c, cr, stream, false)
}

// acceptsNDJSON reports whether any media range of the Accept header is
// application/x-ndjson, parameters such as charset allowed.
func acceptsNDJSON(h http.Header) bool {
	for _, v := range h.Values("Accept") {
		for _, part := range strings.Split(v, ",") {
			if mt, _, err := mime.ParseMediaType(part); err == nil && mt == "application/x-ndjson" {
				return true
			}
		}
	}
	return false
}

// runReport computes the Report for an admitted request: sharded over the
// worker fleet when this daemon coordinates and the engine is site-major,
// locally otherwise (sampling engines always run whole — see the package
// doc). A non-empty uncovered return (possible only with allowPartial on a
// coordinator) marks a degraded report covering only the committed ranges.
func (s *Server) runReport(ctx context.Context, c *netlist.Circuit, p *ser.Prepared, req *AnalyzeRequest, info ser.Info) (*ser.Report, []Range, error) {
	if s.coord != nil && info.Class != engine.ClassSampling {
		// Shards carry the client's options but not its scheduling knobs:
		// the deadline stays here (shards inherit cancellation through ctx)
		// and each worker sizes its own sweep.
		opts := req.Options
		opts.Workers, opts.TimeoutMs = 0, 0
		psens, uncovered, err := s.coord.psensitized(ctx, c, req.Circuit, opts, info, req.AllowPartial)
		if err != nil {
			return nil, nil, err
		}
		if len(uncovered) > 0 {
			rep, err := partialReport(p, psens, uncovered)
			return rep, uncovered, err
		}
		rep, err := p.Assemble(psens)
		return rep, nil, err
	}
	rep, err := p.Run(ctx)
	return rep, nil, err
}

// partialReport assembles a degraded report from a P_sensitized vector with
// holes: the uncovered nodes are dropped from the report entirely (their
// vector positions are unspecified, never folded in as zeros), and TotalFIT
// is re-summed over the covered nodes in ascending ID order — the same
// order a full assembly sums, so the covered nodes' contributions are
// bit-identical to their values in the complete report.
func partialReport(p *ser.Prepared, psens []float64, uncovered []Range) (*ser.Report, error) {
	hole := make([]bool, len(psens))
	for _, r := range uncovered {
		for i := r.Lo; i < r.Hi && i >= 0; i++ {
			hole[i] = true
			psens[i] = 0 // defined input for Assemble; the node is dropped below
		}
	}
	rep, err := p.Assemble(psens)
	if err != nil {
		return nil, err
	}
	covered := rep.Nodes[:0]
	var total float64
	for i := range rep.Nodes {
		ns := rep.Nodes[i]
		if id := int(ns.ID); id >= 0 && id < len(hole) && hole[id] {
			continue
		}
		covered = append(covered, ns)
		total += ns.SERFIT
	}
	rep.Nodes = covered
	rep.TotalFIT = total
	return rep, nil
}

// writeReport sends a report: a small per-request envelope — the hash,
// fingerprint, cache flag and disclosed holes of AnalyzeResponse, or the
// NDJSON header frame — around the encoded report bytes, with HTTP 206 when
// the report has holes. The body is byte-identical to encoding the whole
// AnalyzeResponse, or to the live stream.
func writeReport(w http.ResponseWriter, c *netlist.Circuit, cr *cachedReport, stream, cached bool) {
	var head, body, tail []byte
	if stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		head, body = headerLine(c, cr.info, cached), cr.ndjson
	} else {
		w.Header().Set("Content-Type", "application/json")
		// The envelope without a report holds `"report":null`: the report
		// bytes take the place of the null. Without a report, marshaling
		// cannot fail.
		env, _ := json.Marshal(AnalyzeResponse{Hash: c.ContentHash(), Fingerprint: cr.info.Fingerprint, Cached: cached,
			Partial: len(cr.uncovered) > 0, Uncovered: cr.uncovered})
		at := bytes.Index(env, []byte(`"report":null`)) + len(`"report":`)
		head, body, tail = env[:at], cr.json, append(env[at+len("null"):], '\n')
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(body)+len(tail)))
	if len(cr.uncovered) > 0 {
		w.WriteHeader(http.StatusPartialContent)
	}
	for _, b := range [][]byte{head, body, tail} {
		if _, err := w.Write(b); err != nil {
			return
		}
	}
}

// handleShard serves POST /v1/shard: the worker half of the coordinator
// protocol. It computes P_sensitized for the node-ID range [lo, hi) of the
// described sweep and returns the values as IEEE-754 bit patterns together
// with the full-sweep fingerprint the coordinator commits against. Shard
// work passes through the same admission gate as local analyses.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "serd: bad shard request: %v", err)
		return
	}
	c, ok := s.loadCircuit(w, req.Circuit)
	if !ok {
		return
	}
	if req.Lo < 0 || req.Hi > c.N() || req.Hi <= req.Lo {
		writeError(w, http.StatusBadRequest, "serd: shard range [%d,%d) invalid for %d nodes", req.Lo, req.Hi, c.N())
		return
	}
	cfg, err := req.Options.config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := ser.Prepare(c, cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info := p.Info()
	ctx := r.Context()
	if err := s.adm.acquire(ctx); err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	defer s.adm.release()
	vals, err := p.Range(ctx, req.Lo, req.Hi)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			s.logf("serd: shard [%d,%d) %s engine=%s: %v", req.Lo, req.Hi, c.Name, info.Engine, err)
		}
		writeError(w, errStatus(err), "%v", err)
		return
	}
	resp := ShardResponse{Fingerprint: info.Fingerprint, Engine: info.Engine, Lo: req.Lo, Hi: req.Hi, Values: floatBits(vals)}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Circuits:  s.circuits.Stats(),
		Reports:   s.reports.snapshot(),
		Admission: s.adm.snapshot(),
	}
	if s.coord != nil {
		resp.Coordinator = s.coord.stats()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}
