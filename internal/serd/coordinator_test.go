// Coordinator acceptance tests: the sharded fold must be byte-identical to
// a single-process run at every fleet size and retry history — including a
// worker killed mid-shard — and a checkpoint directory must turn a failed
// request's partial progress into a resumed request that re-dispatches only
// the holes. The s38417 matrix of the issue's acceptance criteria runs
// behind SERD_S38417=1 (the CI serd job sets it); the always-on tests cover
// the identical code paths on s953-class circuits.

package serd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

// workerFleet starts n worker daemons, optionally wrapping each handler
// (fault injection, call recording), and returns their base URLs.
func workerFleet(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		w := New(Config{Logf: discardLogf})
		var h http.Handler = w.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// killingHandler injects worker deaths: the first `kills` shard requests
// are answered by slamming the TCP connection shut mid-request — the
// coordinator sees a transport error, exactly as if the worker process had
// been killed — after which the worker serves normally.
type killingHandler struct {
	h     http.Handler
	mu    sync.Mutex
	kills int
	dealt int
}

func (k *killingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard" {
		k.mu.Lock()
		kill := k.kills > 0
		if kill {
			k.kills--
			k.dealt++
		}
		k.mu.Unlock()
		if kill {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server not hijackable")
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
	}
	k.h.ServeHTTP(w, r)
}

// recordingHandler logs the shard ranges a worker actually serves.
type recordingHandler struct {
	h      http.Handler
	mu     sync.Mutex
	ranges [][2]int
}

func (rh *recordingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard" {
		// The response echoes the served range, so record from it.
		rec := httptest.NewRecorder()
		rh.h.ServeHTTP(rec, r)
		if rec.Code == http.StatusOK {
			var sresp ShardResponse
			_ = json.Unmarshal(rec.Body.Bytes(), &sresp)
			rh.mu.Lock()
			rh.ranges = append(rh.ranges, [2]int{sresp.Lo, sresp.Hi})
			rh.mu.Unlock()
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
		return
	}
	rh.h.ServeHTTP(w, r)
}

func TestCoordinatorByteIdenticalToLocalRun(t *testing.T) {
	src := CircuitSource{Profile: "s953"}
	type leg struct {
		name string
		opts Options
	}
	legs := []leg{
		{"frames1", Options{Frames: 1}},
		{"frames4", Options{Frames: 4}},
		// Monte Carlo signal probabilities: every shard resolves the SP
		// vector itself, and the coordinator folds them against its own.
		{"frames1-spmc", Options{Frames: 1, SPMethod: "monte-carlo", SPVectors: 4096}},
	}
	for _, fleet := range []int{1, 2} {
		for _, l := range legs {
			t.Run(fmt.Sprintf("workers%d-%s", fleet, l.name), func(t *testing.T) {
				workers := workerFleet(t, fleet, nil)
				_, ts := newTestServer(t, Config{Workers: workers, ShardsPerWorker: 3})
				opts := l.opts
				want := localRun(t, src, opts)

				resp := analyze(t, ts.URL, AnalyzeRequest{Circuit: src, Options: opts})
				requireReportsIdentical(t, "coordinated", resp.Report, want)

				// The coordinator's streamed form serves the same bits.
				lines := analyzeStream(t, ts.URL, AnalyzeRequest{Circuit: src, Options: opts})
				_, rep := decodeStream(t, lines)
				requireReportsIdentical(t, "coordinated-stream", rep, want)
			})
		}
	}
}

// TestCoordinatorSamplingRunsWhole: the word-major monte-carlo engine is
// never sharded — a coordinator with workers still answers sampling
// requests bit-identically by running them on its local pool.
func TestCoordinatorSamplingRunsWhole(t *testing.T) {
	workers := workerFleet(t, 2, nil)
	_, ts := newTestServer(t, Config{Workers: workers})
	src := CircuitSource{Bench: c17Bench(t)}
	opts := Options{Method: "monte-carlo", Vectors: 2048, Seed: 42}
	want := localRun(t, src, opts)
	resp := analyze(t, ts.URL, AnalyzeRequest{Circuit: src, Options: opts})
	requireReportsIdentical(t, "sampling-whole", resp.Report, want)
}

func TestCoordinatorWorkerKillRetry(t *testing.T) {
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})

	var killer *killingHandler
	workers := workerFleet(t, 2, func(i int, h http.Handler) http.Handler {
		if i == 0 {
			killer = &killingHandler{h: h, kills: 1}
			return killer
		}
		return h
	})
	_, ts := newTestServer(t, Config{Workers: workers, ShardsPerWorker: 3})

	resp := analyze(t, ts.URL, AnalyzeRequest{Circuit: src, Options: Options{}})
	requireReportsIdentical(t, "kill-retry", resp.Report, want)
	if killer.dealt != 1 {
		t.Fatalf("injected %d kills, wanted exactly 1 dealt", killer.dealt)
	}
}

// TestCoordinatorAllWorkersDead: with every worker refusing shards the
// request must fail cleanly (no hang, no partial report), and the error
// must surface as a 5xx.
func TestCoordinatorAllWorkersDead(t *testing.T) {
	workers := workerFleet(t, 2, func(i int, h http.Handler) http.Handler {
		return &killingHandler{h: h, kills: 1 << 20}
	})
	_, ts := newTestServer(t, Config{Workers: workers, ShardsPerWorker: 2, ShardAttempts: 2})
	resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/analyze",
		AnalyzeRequest{Circuit: CircuitSource{Profile: "s953"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("all-dead fleet: HTTP %d (want 500)", resp.StatusCode)
	}
}

// TestDeadFleetFailsFast: a fleet that is gone for good (connection
// refused, so even the health probes fail) must still resolve the request
// — a 500 by default, a fully-uncovered 206 under allow_partial — instead
// of parking forever on breakers that will never close. Guards the
// failIfUnreachable path: the default attempt budget (2 + fleet size)
// exceeds the breaker threshold, so without it the final attempts would
// wait on a probe that never succeeds and the request would hang.
func TestDeadFleetFailsFast(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	for _, partial := range []bool{false, true} {
		t.Run(fmt.Sprintf("allowPartial=%v", partial), func(t *testing.T) {
			_, ts := newTestServer(t, Config{
				Workers:         []string{deadURL},
				ShardsPerWorker: 2,
				RetryBackoff:    time.Millisecond,
				BreakerProbe:    10 * time.Millisecond,
			})
			client := &http.Client{Timeout: 30 * time.Second}
			resp := postJSON(t, client, ts.URL+"/v1/analyze",
				AnalyzeRequest{Circuit: CircuitSource{Profile: "s953"}, AllowPartial: partial})
			defer resp.Body.Close()
			if !partial {
				if resp.StatusCode != http.StatusInternalServerError {
					t.Fatalf("dead fleet: HTTP %d (want 500)", resp.StatusCode)
				}
				return
			}
			if resp.StatusCode != http.StatusPartialContent {
				t.Fatalf("dead fleet with allow_partial: HTTP %d (want 206)", resp.StatusCode)
			}
			var ar AnalyzeResponse
			if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
				t.Fatal(err)
			}
			if !ar.Partial || len(ar.Uncovered) == 0 || ar.Uncovered[0].Lo != 0 {
				t.Fatalf("partial=%v uncovered=%v, want the whole sweep disclosed as uncovered", ar.Partial, ar.Uncovered)
			}
		})
	}
}

// TestCoordinatorCheckpointResume: a request that dies after committing one
// shard leaves durable progress under CheckpointDir; the retried request
// (fresh coordinator, same directory) re-dispatches only the holes and
// still produces the byte-identical report.
func TestCoordinatorCheckpointResume(t *testing.T) {
	src := CircuitSource{Profile: "s953"}
	want := localRun(t, src, Options{})
	dir := t.TempDir()
	const perWorker = 4

	// Phase 1: the lone worker serves exactly one shard, then dies for
	// good. ShardAttempts 1 makes the first post-commit failure fatal. A
	// one-worker coordinator dispatches sequentially, so the counter needs
	// no lock.
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
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint dir after failed request: %v (err %v)", files, err)
	}

	// Phase 2: healthy worker, same checkpoint dir. Only the holes are
	// dispatched — strictly fewer shard calls than a cold request needs —
	// and the fold is still bit-identical.
	var rec *recordingHandler
	w2 := workerFleet(t, 1, func(i int, h http.Handler) http.Handler {
		rec = &recordingHandler{h: h}
		return rec
	})
	_, ts2 := newTestServer(t, Config{Workers: w2, ShardsPerWorker: perWorker, CheckpointDir: dir})
	got := analyze(t, ts2.URL, AnalyzeRequest{Circuit: src})
	requireReportsIdentical(t, "resumed", got.Report, want)

	rec.mu.Lock()
	resumedCalls := len(rec.ranges)
	ranges := rec.ranges
	rec.mu.Unlock()
	if resumedCalls == 0 || resumedCalls >= perWorker {
		t.Fatalf("resumed request dispatched %d shards (want 1..%d): %v", resumedCalls, perWorker-1, ranges)
	}

	// Phase 3: the finished checkpoint satisfies a repeat request with zero
	// shard dispatches (fresh daemon, so the report cache is cold too).
	var rec3 *recordingHandler
	w3 := workerFleet(t, 1, func(i int, h http.Handler) http.Handler {
		rec3 = &recordingHandler{h: h}
		return rec3
	})
	_, ts3 := newTestServer(t, Config{Workers: w3, ShardsPerWorker: perWorker, CheckpointDir: dir})
	again := analyze(t, ts3.URL, AnalyzeRequest{Circuit: src})
	requireReportsIdentical(t, "fully-checkpointed", again.Report, want)
	rec3.mu.Lock()
	calls3 := len(rec3.ranges)
	rec3.mu.Unlock()
	if calls3 != 0 {
		t.Fatalf("fully-checkpointed request still dispatched %d shards", calls3)
	}
}

// TestS38417Matrix is the issue's acceptance matrix: sharded coordinator
// results on s38417 for worker fleets of 1, 2 and 4 at frames 1 and 4, byte
// identical to the single-process run, including under one injected worker
// kill mid-shard. It costs many full sweeps of a 20k-gate circuit, so it
// only runs when SERD_S38417=1 (the CI serd job sets it).
func TestS38417Matrix(t *testing.T) {
	if os.Getenv("SERD_S38417") == "" {
		t.Skip("set SERD_S38417=1 to run the s38417 acceptance matrix")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	src := CircuitSource{Profile: "s38417"}
	for _, frames := range []int{1, 4} {
		opts := Options{Frames: frames}
		want := localRun(t, src, opts)
		for _, fleet := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("workers%d-frames%d", fleet, frames), func(t *testing.T) {
				// One injected worker kill in the 2-worker leg exercises
				// retry inside the matrix itself.
				var killer *killingHandler
				wrap := func(i int, h http.Handler) http.Handler {
					if fleet == 2 && i == 0 {
						killer = &killingHandler{h: h, kills: 1}
						return killer
					}
					return h
				}
				workers := workerFleet(t, fleet, wrap)
				_, ts := newTestServer(t, Config{Workers: workers})
				resp := analyze(t, ts.URL, AnalyzeRequest{Circuit: src, Options: opts})
				requireReportsIdentical(t, t.Name(), resp.Report, want)
				if killer != nil && killer.dealt != 1 {
					t.Fatalf("kill not dealt: %d", killer.dealt)
				}
			})
		}
	}
}
