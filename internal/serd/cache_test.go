// Report-cache serving tests: the raw bytes of a cache hit against the
// uncached response and a direct library run, for every path that serves a
// complete report.

package serd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ser"
)

// escapedBench is c17 with node names that encoding/json must escape: HTML
// characters, a quote, a backslash and U+2028, next to plain non-ASCII.
const escapedBench = "INPUT(G1<&>)\nINPUT(G2)\nINPUT(G3\u2028é)\nINPUT(G6)\nINPUT(G7)\n" +
	"OUTPUT(G22\"q\")\nOUTPUT(G23)\n" +
	"G10\\ = NAND(G1<&>, G3\u2028é)\nG11 = NAND(G3\u2028é, G6)\nG16 = NAND(G2, G11)\n" +
	"G19 = NAND(G11, G7)\nG22\"q\" = NAND(G10\\, G16)\nG23 = NAND(G16, G19)\n"

// postRaw posts an analyze request and returns the raw response body,
// requiring HTTP 200.
func postRaw(t *testing.T, base string, req AnalyzeRequest) []byte {
	t.Helper()
	resp := postJSON(t, http.DefaultClient, base+"/v1/analyze", req)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: HTTP %d: %s", resp.StatusCode, body)
	}
	return body
}

// splitHeader splits an NDJSON body into its header line and the rest.
func splitHeader(t *testing.T, body []byte) (header, tail []byte) {
	t.Helper()
	i := bytes.IndexByte(body, '\n')
	if i < 0 {
		t.Fatalf("stream without a header line: %.200q", body)
	}
	return body[:i+1], body[i+1:]
}

// TestCachedResponseBytes: a report-cache hit serves the uncached response
// with only its cache flag changed, byte for byte, and that response is the
// plain encoding of AnalyzeResponse around the library's own report. A
// cached NDJSON stream equals the live stream from line 2 on, whether the
// entry was filled by a JSON request or by the stream itself.
func TestCachedResponseBytes(t *testing.T) {
	coord := Config{Workers: workerFleet(t, 1, nil)}
	cases := []struct {
		name string
		cfg  Config
		src  CircuitSource
		opts Options
	}{
		{"c17-default", Config{}, CircuitSource{Bench: c17Bench(t)}, Options{}},
		{"s953-frames4", Config{}, CircuitSource{Profile: "s953"}, Options{Frames: 4}},
		{"c17-monte-carlo", Config{}, CircuitSource{Bench: c17Bench(t)}, Options{Method: "monte-carlo", Vectors: 4096, Seed: 7}},
		{"coordinator-1-worker", coord, CircuitSource{Profile: "s953"}, Options{}},
		{"escaped-names", Config{}, CircuitSource{Bench: escapedBench}, Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := localRun(t, tc.src, tc.opts)
			req := AnalyzeRequest{Circuit: tc.src, Options: tc.opts}
			_, ts := newTestServer(t, tc.cfg)

			cold := postRaw(t, ts.URL, req)
			var meta AnalyzeResponse
			if err := json.Unmarshal(cold, &meta); err != nil {
				t.Fatal(err)
			}
			var enc bytes.Buffer
			if err := json.NewEncoder(&enc).Encode(AnalyzeResponse{Hash: meta.Hash, Fingerprint: meta.Fingerprint, Report: want}); err != nil {
				t.Fatal(err)
			}
			if tc.name == "escaped-names" && !bytes.Contains(cold, []byte(`G1\u003c\u0026\u003e`)) {
				t.Fatalf("node names not escaped: %.300s", cold)
			}
			if !bytes.Equal(cold, enc.Bytes()) {
				t.Fatalf("uncached body differs from the encoded local run:\n%.300s\n%.300s", cold, enc.Bytes())
			}
			warm := postRaw(t, ts.URL, req)
			flipped := bytes.Replace(cold, []byte(`"cached":false`), []byte(`"cached":true`), 1)
			if !bytes.Equal(warm, flipped) {
				t.Fatalf("cached body differs from the uncached one:\n%.300s\n%.300s", warm, cold)
			}

			// The stream of the entry the JSON request filled, and a live
			// stream then its cached repeat on a fresh daemon.
			sreq := req
			sreq.Stream = true
			fromJSON := postRaw(t, ts.URL, sreq)
			_, fresh := newTestServer(t, tc.cfg)
			live := postRaw(t, fresh.URL, sreq)
			fromLive := postRaw(t, fresh.URL, sreq)
			liveHdr, liveTail := splitHeader(t, live)
			cachedHdr := bytes.Replace(liveHdr, []byte(`"cached":false`), []byte(`"cached":true`), 1)
			for i, body := range [][]byte{fromJSON, fromLive} {
				hdr, tail := splitHeader(t, body)
				if !bytes.Equal(hdr, cachedHdr) {
					t.Fatalf("cached stream %d: header %s, want %s", i, hdr, cachedHdr)
				}
				if !bytes.Equal(tail, liveTail) {
					t.Fatalf("cached stream %d differs from the live stream after the header line", i)
				}
			}
		})
	}
}

func TestReportCacheAliases(t *testing.T) {
	rc := newReportCache(1 << 20)
	a := &cachedReport{info: ser.Info{Fingerprint: "a"}, json: make([]byte, 100), ndjson: make([]byte, 100)}
	rc.put(a)
	keys := make([]aliasKey, maxAliases+1)
	for i := range keys {
		keys[i] = newAliasKey("h", Options{Workers: i})
		if _, ok := rc.lookup(keys[i]); ok {
			t.Fatalf("alias %d hit before it was added", i)
		}
		if got, ok := rc.get("a", keys[i]); !ok || got != a {
			t.Fatalf("fingerprint lookup %d missed", i)
		}
	}
	// The entry keeps the newest maxAliases keys; the oldest went first.
	if _, ok := rc.lookup(keys[0]); ok {
		t.Fatal("oldest alias survived past maxAliases")
	}
	for i := 1; i < len(keys); i++ {
		if got, ok := rc.lookup(keys[i]); !ok || got != a {
			t.Fatalf("alias %d missed", i)
		}
	}
	st := rc.snapshot()
	if want := 200 + maxAliases*keys[0].size(); st.Bytes != want {
		t.Fatalf("bytes %d with %d aliases, want %d", st.Bytes, maxAliases, want)
	}
	// Alias misses count nothing; alias hits count as hits.
	if st.Hits != int64(2*maxAliases+1) || st.Misses != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// Latch parameters key by bit pattern: -0 and 0 are different requests.
	zero, negZero := &LatchParams{ClockPeriodPs: 1000}, &LatchParams{ClockPeriodPs: 1000, WindowPs: math.Copysign(0, -1)}
	if newAliasKey("h", Options{Latch: zero}) == newAliasKey("h", Options{Latch: negZero}) {
		t.Fatal("latch -0 and 0 share an alias key")
	}
	if newAliasKey("h", Options{Latch: zero}) != newAliasKey("h", Options{Latch: &LatchParams{ClockPeriodPs: 1000}}) {
		t.Fatal("equal latch parameters give different alias keys")
	}

	// Evicting the entry evicts its aliases with it.
	b := &cachedReport{info: ser.Info{Fingerprint: "b"}, json: make([]byte, 1<<20)}
	rc.put(b)
	for i := range keys {
		if _, ok := rc.lookup(keys[i]); ok {
			t.Fatalf("alias %d outlived its entry", i)
		}
	}
	if st := rc.snapshot(); st.Entries != 1 || st.Bytes != 1<<20 {
		t.Fatalf("after eviction: %+v", st)
	}
}

// stats fetches the daemon's /v1/stats.
func stats(t *testing.T, base string) StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAliasServesOtherWorkers: a repeat request that differs only in a
// scheduling knob gets the identical report bytes, and its alias hits count
// as report-cache hits.
func TestAliasServesOtherWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := CircuitSource{Profile: "s953"}
	cold := postRaw(t, ts.URL, AnalyzeRequest{Circuit: src, Options: Options{Workers: 1}})
	want := bytes.Replace(cold, []byte(`"cached":false`), []byte(`"cached":true`), 1)
	for i, w := range []int{2, 2, 3, 1, 1} {
		if got := postRaw(t, ts.URL, AnalyzeRequest{Circuit: src, Options: Options{Workers: w}}); !bytes.Equal(got, want) {
			t.Fatalf("request %d (workers %d): body differs from the cold one", i, w)
		}
	}
	// One miss, then five hits: three through the fingerprint (each first
	// sight of a workers value) and two through the aliases they added.
	if st := stats(t, ts.URL).Reports; st.Misses != 1 || st.Hits != 5 || st.Entries != 1 {
		t.Fatalf("report cache: %+v", st)
	}
}

// TestAliasNeverAdmitsRejected: requests that ser.Describe or the options
// mapping rejects stay rejected after a cached 200 for the same circuit.
func TestAliasNeverAdmitsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := CircuitSource{Bench: c17Bench(t)}
	for i := 0; i < 3; i++ {
		postRaw(t, ts.URL, AnalyzeRequest{Circuit: src})
	}
	for _, opts := range []Options{{Workers: -1}, {TimeoutMs: -1}, {Frames: -1}} {
		resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/analyze", AnalyzeRequest{Circuit: src, Options: opts})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("options %+v: HTTP %d after a cached 200, want 400: %s", opts, resp.StatusCode, body)
		}
	}
}

// TestAliasEvictedWithReport: evicting a report evicts its aliases, so the
// cache's byte count falls back to what the surviving entry alone costs and
// the evicted request misses again.
func TestAliasEvictedWithReport(t *testing.T) {
	first := AnalyzeRequest{Circuit: CircuitSource{Bench: c17Bench(t)}}
	second := AnalyzeRequest{Circuit: CircuitSource{Profile: "s953"}}
	// Measure each entry on its own daemon: the first with one alias, the
	// second bare.
	_, probe := newTestServer(t, Config{})
	postRaw(t, probe.URL, first)
	postRaw(t, probe.URL, first)
	withAlias := stats(t, probe.URL).Reports.Bytes
	_, probe2 := newTestServer(t, Config{})
	postRaw(t, probe2.URL, second)
	bare := stats(t, probe2.URL).Reports.Bytes

	// A bound that holds either entry but not both.
	_, ts := newTestServer(t, Config{ReportCacheBytes: max(withAlias, bare)})
	postRaw(t, ts.URL, first)
	postRaw(t, ts.URL, first)
	if st := stats(t, ts.URL).Reports; st.Bytes != withAlias {
		t.Fatalf("bytes %d with one alias, want %d", st.Bytes, withAlias)
	}
	postRaw(t, ts.URL, second)
	if st := stats(t, ts.URL).Reports; st.Bytes != bare || st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after eviction: %+v, want %d bytes", st, bare)
	}
	var again AnalyzeResponse
	if err := json.Unmarshal(postRaw(t, ts.URL, first), &again); err != nil || again.Cached {
		t.Fatalf("evicted request served cached (err %v)", err)
	}
}

// servesOnce answers the first shard request and drops the connection of
// every later one, as a worker that dies after one shard would.
type servesOnce struct {
	h      http.Handler
	served atomic.Bool
}

func (so *servesOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard" && so.served.Swap(true) {
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
		return
	}
	so.h.ServeHTTP(w, r)
}

// TestPartialResponseBytes pins the bytes of a partly covered degraded
// response. A one-worker coordinator cuts s953 into four shards; its worker
// serves the first and drops the rest, each shard gets one attempt, and
// the request allows a partial result. The JSON body must be the plain
// encoding of AnalyzeResponse around the local run's covered nodes; the
// NDJSON body the header, the covered tiles and the partial frame.
func TestPartialResponseBytes(t *testing.T) {
	src := CircuitSource{Profile: "s953"}
	full := localRun(t, src, Options{})
	c, err := newTestServerlessCircuit(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ser.Describe(c, ser.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const covered = 110 // the first of four shards of 440 nodes
	uncovered := []Range{{Lo: covered, Hi: c.N()}}
	rep := *full
	rep.Nodes = full.Nodes[:covered]
	rep.TotalFIT = 0
	for _, ns := range rep.Nodes {
		rep.TotalFIT += ns.SERFIT
	}

	var wantJSON, wantNDJSON bytes.Buffer
	if err := json.NewEncoder(&wantJSON).Encode(AnalyzeResponse{
		Hash: c.ContentHash(), Fingerprint: info.Fingerprint, Report: &rep, Partial: true, Uncovered: uncovered,
	}); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&wantNDJSON)
	frames := []any{&StreamHeader{Type: FrameHeader, Circuit: full.Circuit, Hash: c.ContentHash(),
		Fingerprint: info.Fingerprint, Engine: full.Engine, Method: full.Method.String(), Nodes: c.N()}}
	for _, ns := range rep.Nodes {
		frames = append(frames, &StreamNode{Type: FrameNode, ID: int(ns.ID), Name: ns.Name, RateFIT: ns.RateFIT,
			PLatched: ns.PLatched, PSensitized: ns.PSensitized, SERFIT: ns.SERFIT})
	}
	frames = append(frames, &StreamPartial{Type: FramePartial, Nodes: covered, TotalFIT: rep.TotalFIT, Uncovered: uncovered})
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}

	for _, stream := range []bool{false, true} {
		t.Run(fmt.Sprintf("stream=%v", stream), func(t *testing.T) {
			workers := workerFleet(t, 1, func(_ int, h http.Handler) http.Handler { return &servesOnce{h: h} })
			_, ts := newTestServer(t, Config{Workers: workers, ShardsPerWorker: 4, ShardAttempts: 1, RetryBackoff: time.Millisecond})
			resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/analyze",
				AnalyzeRequest{Circuit: src, Stream: stream, AllowPartial: true})
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusPartialContent {
				t.Fatalf("HTTP %d (want 206): %.300s", resp.StatusCode, body)
			}
			want := wantJSON.Bytes()
			if stream {
				want = wantNDJSON.Bytes()
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("partial body (%d bytes) differs from the expected encoding (%d bytes):\n%.300s\n%.300s",
					len(body), len(want), body, want)
			}
		})
	}
}
