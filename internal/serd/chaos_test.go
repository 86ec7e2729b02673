// Chaos acceptance matrix for the fault-tolerant coordinator: under every
// recoverable fault schedule the merged report must stay byte-identical to
// the single-process run — not merely close — and unrecoverable schedules
// must end in a clean failure or, with AllowPartial, an explicitly
// disclosed partial result. Faults are injected by the deterministic
// internal/chaos proxy in front of each worker's /v1/shard endpoint
// (healthz stays clean so breaker probes tell the truth); the seed comes
// from SERD_CHAOS_SEED (default 1), and failing runs write their dealt
// fault schedules under SERD_CHAOS_DIR for deterministic replay.

package serd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/resume"
)

// chaosSeed reads the matrix seed from SERD_CHAOS_SEED (default 1).
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	v := os.Getenv("SERD_CHAOS_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("SERD_CHAOS_SEED=%q: %v", v, err)
	}
	return seed
}

// shardOnly matches the dispatch endpoint, leaving health probes clean.
func shardOnly(r *http.Request) bool { return r.URL.Path == "/v1/shard" }

// chaosFleet starts n workers, each behind its own chaos proxy drawing from
// the shared config with a per-worker sub-seed.
func chaosFleet(t *testing.T, n int, cfg chaos.Config) ([]string, []*chaos.Proxy) {
	t.Helper()
	proxies := make([]*chaos.Proxy, n)
	urls := workerFleet(t, n, func(i int, h http.Handler) http.Handler {
		wcfg := cfg
		wcfg.Seed = cfg.Seed + uint64(i)*0x9e37
		proxies[i] = chaos.New(h, wcfg)
		return proxies[i]
	})
	return urls, proxies
}

// resilientConfig is the coordinator tuning the chaos tests run under:
// tight backoff and probe intervals keep wall time down, the per-shard
// deadline converts stalls into one lost attempt, and the retry budget
// covers the fault caps the schedules use.
func resilientConfig(workers []string, seed uint64) Config {
	return Config{
		Workers:         workers,
		ShardsPerWorker: 3,
		ShardAttempts:   8,
		ShardTimeout:    750 * time.Millisecond,
		RetryBackoff:    2 * time.Millisecond,
		RetrySeed:       seed,
		BreakerProbe:    20 * time.Millisecond,
		HedgeDelay:      10 * time.Millisecond,
	}
}

// writeChaosArtifact dumps the dealt fault schedules of a failed chaos test
// under SERD_CHAOS_DIR (CI uploads the directory), so the exact schedule
// can be replayed from its seed.
func writeChaosArtifact(t *testing.T, seed uint64, proxies []*chaos.Proxy) {
	dir := os.Getenv("SERD_CHAOS_DIR")
	if dir == "" || !t.Failed() {
		return
	}
	type artifact struct {
		Test      string          `json:"test"`
		Seed      uint64          `json:"seed"`
		Schedules [][]chaos.Fault `json:"schedules"` // per worker
	}
	a := artifact{Test: t.Name(), Seed: seed}
	for _, p := range proxies {
		a.Schedules = append(a.Schedules, p.Schedule())
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return
	}
	_ = os.MkdirAll(dir, 0o755)
	name := strings.NewReplacer("/", "_", "=", "-").Replace(t.Name()) + ".json"
	_ = os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// TestChaosMatrixRecoverable: fleets of 1 and 2 workers, every fault kind,
// a bounded fault budget well inside the retry budget — the merged report
// must be byte-identical to the local run, every time, and the schedule
// must actually have dealt faults (a matrix that never injects proves
// nothing).
func TestChaosMatrixRecoverable(t *testing.T) {
	seed := chaosSeed(t)
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})
	for _, fleet := range []int{1, 2} {
		for _, kind := range chaos.Kinds() {
			t.Run(fmt.Sprintf("fleet%d-%s", fleet, kind), func(t *testing.T) {
				maxFaults := 3
				if kind == chaos.KindStall {
					maxFaults = 2 // each stall burns a full shard deadline
				}
				workers, proxies := chaosFleet(t, fleet, chaos.Config{
					Seed:      seed,
					Kinds:     []chaos.Kind{kind},
					Rate:      1,
					MaxFaults: maxFaults,
					Match:     shardOnly,
					Delay:     30 * time.Millisecond,
				})
				t.Cleanup(func() { writeChaosArtifact(t, seed, proxies) })
				_, ts := newTestServer(t, resilientConfig(workers, seed))
				resp := analyze(t, ts.URL, AnalyzeRequest{Circuit: src})
				requireReportsIdentical(t, t.Name(), resp.Report, want)
				dealt := 0
				for _, p := range proxies {
					dealt += len(p.Schedule())
				}
				if dealt == 0 {
					t.Fatal("chaos proxy dealt no faults; the matrix asserted nothing")
				}
			})
		}
	}
}

// TestChaosMixedSchedules: seeded random mixes of all fault kinds at a
// partial rate across a 2-worker fleet — the closest shape to a genuinely
// misbehaving network — still converge byte-identically.
func TestChaosMixedSchedules(t *testing.T) {
	base := chaosSeed(t)
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})
	for i := 0; i < 3; i++ {
		seed := base + uint64(i)*1013
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			workers, proxies := chaosFleet(t, 2, chaos.Config{
				Seed:      seed,
				Rate:      0.4,
				MaxFaults: 5,
				Match:     shardOnly,
				Delay:     20 * time.Millisecond,
			})
			t.Cleanup(func() { writeChaosArtifact(t, seed, proxies) })
			_, ts := newTestServer(t, resilientConfig(workers, seed))
			resp := analyze(t, ts.URL, AnalyzeRequest{Circuit: src})
			requireReportsIdentical(t, t.Name(), resp.Report, want)
		})
	}
}

// TestChaosUnrecoverableFailsCleanly: a fleet whose every shard dispatch is
// dropped, past any retry budget, must end in a clean 500 — no hang, no
// fabricated report.
func TestChaosUnrecoverableFailsCleanly(t *testing.T) {
	seed := chaosSeed(t)
	workers, _ := chaosFleet(t, 1, chaos.Config{
		Seed:  seed,
		Kinds: []chaos.Kind{chaos.KindDrop},
		Rate:  1,
		Match: shardOnly,
	})
	cfg := resilientConfig(workers, seed)
	cfg.ShardAttempts = 2
	_, ts := newTestServer(t, cfg)
	resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/analyze",
		AnalyzeRequest{Circuit: CircuitSource{Profile: "s953"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unrecoverable fleet: HTTP %d (want 500)", resp.StatusCode)
	}
}

// TestChaosAllowPartialDegraded: with AllowPartial, the same unrecoverable
// fleet yields HTTP 206 with every node range disclosed as uncovered and an
// empty (never zero-filled) report; the partial result is not memoized, so
// once the fault clears the same daemon serves the complete report.
func TestChaosAllowPartialDegraded(t *testing.T) {
	seed := chaosSeed(t)
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})
	workers, proxies := chaosFleet(t, 1, chaos.Config{
		Seed:  seed,
		Kinds: []chaos.Kind{chaos.KindDrop},
		Rate:  1,
		Match: shardOnly,
	})
	cfg := resilientConfig(workers, seed)
	cfg.ShardAttempts = 2
	_, ts := newTestServer(t, cfg)

	req := AnalyzeRequest{Circuit: src, AllowPartial: true}
	resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/analyze", req)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("degraded analyze: HTTP %d (want 206): %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Partial {
		t.Fatal("206 response without partial flag")
	}
	if len(out.Uncovered) != 1 || out.Uncovered[0].Lo != 0 || out.Uncovered[0].Hi != len(want.Nodes) {
		t.Fatalf("uncovered = %v, want the whole range [0,%d)", out.Uncovered, len(want.Nodes))
	}
	if len(out.Report.Nodes) != 0 || out.Report.TotalFIT != 0 {
		t.Fatalf("fully-uncovered report has %d nodes, TotalFIT %v (holes must not be filled)",
			len(out.Report.Nodes), out.Report.TotalFIT)
	}

	// Fault clears: the same daemon must now produce the complete report —
	// and from a real sweep, proving the partial result was never memoized.
	for _, p := range proxies {
		p.Disable()
	}
	full := analyze(t, ts.URL, AnalyzeRequest{Circuit: src, AllowPartial: true})
	if full.Cached || full.Partial {
		t.Fatalf("post-recovery response: cached=%v partial=%v (partial must not be memoized)", full.Cached, full.Partial)
	}
	requireReportsIdentical(t, "post-recovery", full.Report, want)
}

// TestChaosPartialStream: the streamed form of a degraded result terminates
// with a partial frame disclosing the uncovered ranges instead of a total
// frame — a stream consumer cannot mistake it for a complete result.
func TestChaosPartialStream(t *testing.T) {
	seed := chaosSeed(t)
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})
	workers, _ := chaosFleet(t, 1, chaos.Config{
		Seed:  seed,
		Kinds: []chaos.Kind{chaos.KindDrop},
		Rate:  1,
		Match: shardOnly,
	})
	cfg := resilientConfig(workers, seed)
	cfg.ShardAttempts = 2
	_, ts := newTestServer(t, cfg)

	resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/analyze",
		AnalyzeRequest{Circuit: src, Stream: true, AllowPartial: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("partial stream: HTTP %d (want 206)", resp.StatusCode)
	}
	lines, err := readLines(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("partial stream: only %d lines", len(lines))
	}
	var hdr StreamHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Type != FrameHeader {
		t.Fatalf("bad header %q (err %v)", lines[0], err)
	}
	var last StreamPartial
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Type != FramePartial {
		t.Fatalf("terminal frame %q (err %v), want a partial frame", lines[len(lines)-1], err)
	}
	if len(last.Uncovered) != 1 || last.Uncovered[0].Hi != len(want.Nodes) {
		t.Fatalf("partial frame uncovered = %v", last.Uncovered)
	}
	if last.Nodes != 0 || len(lines) != 2 {
		t.Fatalf("fully-uncovered stream carried %d tiles over %d lines", last.Nodes, len(lines))
	}
}

// TestChaosCheckpointCorruptionQuarantine: a corrupted on-disk checkpoint
// must not poison a retried request — the coordinator quarantines the file
// (with its evidence preserved under .corrupt), restarts the sweep from
// scratch, and still converges to the byte-identical report.
func TestChaosCheckpointCorruptionQuarantine(t *testing.T) {
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})
	dir := t.TempDir()
	const perWorker = 4

	// Phase 1: one shard commits, then the worker dies for good, leaving a
	// partial checkpoint on disk.
	served := 0
	w1 := workerFleet(t, 1, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				if served >= 1 {
					conn, _, err := w.(http.Hijacker).Hijack()
					if err == nil {
						conn.Close()
					}
					return
				}
				served++
			}
			h.ServeHTTP(w, r)
		})
	})
	_, ts1 := newTestServer(t, Config{Workers: w1, ShardsPerWorker: perWorker, ShardAttempts: 1, CheckpointDir: dir})
	resp := postJSON(t, http.DefaultClient, ts1.URL+"/v1/analyze", AnalyzeRequest{Circuit: src})
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("phase-1 request succeeded despite the dead worker")
	}

	// Corrupt the checkpoint: flip one digit inside the committed values so
	// the document still parses but the checksum no longer verifies.
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files = %v (err %v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	idx := strings.Index(string(data), `"values":[`)
	if idx < 0 {
		t.Fatalf("checkpoint has no values array to tamper: %s", data)
	}
	pos := idx + len(`"values":[`)
	if data[pos] == '1' {
		data[pos] = '2'
	} else {
		data[pos] = '1'
	}
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 2: healthy worker, same directory. The corrupt file must be
	// quarantined and the full sweep re-dispatched.
	var rec *recordingHandler
	w2 := workerFleet(t, 1, func(i int, h http.Handler) http.Handler {
		rec = &recordingHandler{h: h}
		return rec
	})
	_, ts2 := newTestServer(t, Config{Workers: w2, ShardsPerWorker: perWorker, CheckpointDir: dir})
	got := analyze(t, ts2.URL, AnalyzeRequest{Circuit: src})
	requireReportsIdentical(t, "post-quarantine", got.Report, want)

	if _, err := os.Stat(files[0] + ".corrupt"); err != nil {
		t.Fatalf("quarantined checkpoint missing: %v", err)
	}
	rec.mu.Lock()
	calls := len(rec.ranges)
	rec.mu.Unlock()
	if calls != perWorker {
		t.Fatalf("post-quarantine request dispatched %d shards, want the full %d (no stale progress)", calls, perWorker)
	}
}

// coordStats fetches the coordinator half of /v1/stats.
func coordStats(t *testing.T, base string) *CoordinatorStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Coordinator == nil {
		t.Fatal("stats response has no coordinator section")
	}
	return stats.Coordinator
}

// TestCancelledRequestDoesNotTripBreaker: a shard attempt that fails only
// because the client hung up must not count against the worker — the next
// request finds the breaker closed and the worker serving.
func TestCancelledRequestDoesNotTripBreaker(t *testing.T) {
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})
	var stalledOnce atomic.Bool
	workers := workerFleet(t, 1, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" && stalledOnce.CompareAndSwap(false, true) {
				// Stall the first shard until the request is abandoned. The
				// body must be drained first or net/http cannot detect the
				// abort and cancel the context.
				_, _ = io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	_, ts := newTestServer(t, Config{Workers: workers, ShardsPerWorker: 2})

	// First request: the worker stalls the first shard and the client gives
	// up. The failure is context-caused, not the worker's.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	body, _ := json.Marshal(AnalyzeRequest{Circuit: src})
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(string(body)))
	hreq.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(hreq); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("stalled request succeeded")
		}
	}

	stats := coordStats(t, ts.URL)
	w0 := stats.Workers[0]
	if w0.State != BreakerClosed || w0.Failures != 0 || w0.Opens != 0 {
		t.Fatalf("cancellation counted against worker health: %+v", w0)
	}

	// Second request on the same daemon: the worker serves normally.
	got := analyze(t, ts.URL, AnalyzeRequest{Circuit: src})
	requireReportsIdentical(t, "post-cancel", got.Report, want)
}

// TestShardValueValidationTripsBreaker: a worker answering 200 with NaN
// values must have its responses rejected before the fold — counted as
// worker failures that open its breaker — while the healthy worker carries
// the sweep to the byte-identical result. The healthy worker holds its
// shard responses until the poisoned one has served both NaN responses
// (or 10 s have passed): otherwise it can finish the sweep after the
// poisoned worker was handed only one shard.
func TestShardValueValidationTripsBreaker(t *testing.T) {
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})
	var mu sync.Mutex
	poisoned, served := 0, 0
	bothServed := make(chan struct{})
	workers := workerFleet(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/shard" {
					select {
					case <-bothServed:
					case <-r.Context().Done():
						return
					case <-time.After(10 * time.Second):
					}
				}
				h.ServeHTTP(w, r)
			})
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/shard" {
				h.ServeHTTP(w, r)
				return
			}
			mu.Lock()
			poison := poisoned < 2
			if poison {
				poisoned++
			}
			mu.Unlock()
			if !poison {
				h.ServeHTTP(w, r)
				return
			}
			// Serve the real response with one value replaced by NaN: a
			// plausible-looking but unfoldable shard.
			defer func() {
				mu.Lock()
				defer mu.Unlock()
				if served++; served == 2 {
					close(bothServed)
				}
			}()
			rec := record(t, h, r)
			var sresp ShardResponse
			if json.Unmarshal(rec, &sresp) == nil && len(sresp.Values) > 0 {
				sresp.Values[0] = math.Float64bits(math.NaN())
				out, _ := json.Marshal(&sresp)
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write(out)
				return
			}
			_, _ = w.Write(rec)
		})
	})
	cfg := resilientConfig(workers, 1)
	_, ts := newTestServer(t, cfg)
	got := analyze(t, ts.URL, AnalyzeRequest{Circuit: src})
	requireReportsIdentical(t, "nan-rejected", got.Report, want)

	stats := coordStats(t, ts.URL)
	if stats.ValueRejects < 2 {
		t.Fatalf("value rejects = %d, want >= 2", stats.ValueRejects)
	}
	w0 := stats.Workers[0]
	if w0.Failures < 2 {
		t.Fatalf("poisoned worker's failures = %d, want >= 2: %+v", w0.Failures, w0)
	}
}

// record captures a handler's 200 response body (test helper for response
// tampering).
func record(t *testing.T, h http.Handler, r *http.Request) []byte {
	t.Helper()
	rec := newTamperRecorder()
	h.ServeHTTP(rec, r)
	return rec.body
}

type tamperRecorder struct {
	header http.Header
	body   []byte
}

func newTamperRecorder() *tamperRecorder { return &tamperRecorder{header: make(http.Header)} }

func (tr *tamperRecorder) Header() http.Header { return tr.header }
func (tr *tamperRecorder) WriteHeader(int)     {}
func (tr *tamperRecorder) Write(b []byte) (int, error) {
	tr.body = append(tr.body, b...)
	return len(b), nil
}

// TestHedgedDispatchBeatsStraggler: with one worker consistently slow, the
// idle worker hedges the straggler shards; the first valid response wins
// and the result stays byte-identical.
func TestHedgedDispatchBeatsStraggler(t *testing.T) {
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})
	workers := workerFleet(t, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				select {
				case <-time.After(400 * time.Millisecond):
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	cfg := Config{
		Workers:         workers,
		ShardsPerWorker: 2,
		HedgeDelay:      5 * time.Millisecond,
		RetryBackoff:    2 * time.Millisecond,
	}
	_, ts := newTestServer(t, cfg)
	start := time.Now()
	got := analyze(t, ts.URL, AnalyzeRequest{Circuit: src})
	elapsed := time.Since(start)
	requireReportsIdentical(t, "hedged", got.Report, want)

	stats := coordStats(t, ts.URL)
	if stats.Hedges == 0 {
		t.Fatalf("no hedged dispatches recorded (elapsed %v): %+v", elapsed, stats)
	}
}

// TestBreakerOpensThenWorkerRejoins: a worker that refuses every shard
// call fails the first request and opens its breaker; after it heals, the
// SAME daemon's next request probes it back into the fleet — no
// coordinator restart, the regression the old permanent retirement had.
func TestBreakerOpensThenWorkerRejoins(t *testing.T) {
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})
	var mu sync.Mutex
	healthy := false
	workers := workerFleet(t, 1, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			ok := healthy
			mu.Unlock()
			if r.URL.Path == "/v1/shard" && !ok {
				writeError(w, http.StatusServiceUnavailable, "worker rebooting")
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	cfg := resilientConfig(workers, 1)
	cfg.ShardAttempts = 2
	_, ts := newTestServer(t, cfg)

	resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/analyze", AnalyzeRequest{Circuit: src})
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("request against the rebooting worker: HTTP %d (want 500)", resp.StatusCode)
	}
	stats := coordStats(t, ts.URL)
	if stats.Workers[0].Opens == 0 {
		t.Fatalf("breaker never opened: %+v", stats.Workers[0])
	}

	mu.Lock()
	healthy = true
	mu.Unlock()
	got := analyze(t, ts.URL, AnalyzeRequest{Circuit: src})
	requireReportsIdentical(t, "rejoined", got.Report, want)
	stats = coordStats(t, ts.URL)
	w0 := stats.Workers[0]
	if w0.State != BreakerClosed || w0.Probes == 0 {
		t.Fatalf("worker did not rejoin through a probe: %+v", w0)
	}
}

// TestPendingShardTasks: table-driven edge cases of the complement tiler.
func TestPendingShardTasks(t *testing.T) {
	type r = struct{ Lo, Hi int }
	cases := []struct {
		name  string
		n     int
		chunk int
		done  []r
		want  []shardTask
	}{
		{name: "fresh-even", n: 10, chunk: 4, want: []shardTask{{lo: 0, hi: 4}, {lo: 4, hi: 8}, {lo: 8, hi: 10}}},
		{name: "chunk-exceeds-n", n: 5, chunk: 10, want: []shardTask{{lo: 0, hi: 5}}},
		{name: "adjacent-committed", n: 10, chunk: 4, done: []r{{2, 5}, {5, 7}},
			want: []shardTask{{lo: 0, hi: 2}, {lo: 7, hi: 10}}},
		{name: "fully-committed", n: 8, chunk: 3, done: []r{{0, 8}}, want: nil},
		{name: "empty-input", n: 0, chunk: 1, want: nil},
		{name: "hole-larger-than-chunk", n: 12, chunk: 3, done: []r{{0, 2}, {10, 12}},
			want: []shardTask{{lo: 2, hi: 5}, {lo: 5, hi: 8}, {lo: 8, hi: 10}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make([]resume.Range, 0, len(tc.done))
			for _, d := range tc.done {
				done = append(done, resume.Range{Lo: d.Lo, Hi: d.Hi})
			}
			got := pendingShardTasks(tc.n, tc.chunk, done)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i].lo != tc.want[i].lo || got[i].hi != tc.want[i].hi {
					t.Fatalf("task %d = %+v, want %+v (full: %v)", i, got[i], tc.want[i], got)
				}
			}
		})
	}
}
