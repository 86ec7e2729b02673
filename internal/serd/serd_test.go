// End-to-end tests of the daemon over real HTTP (httptest): report and
// stream byte-identity against direct library runs, cache semantics,
// concurrent mixed workloads, mid-stream disconnect draining, deterministic
// admission behavior, and the coordinator's bit-exact sharded fold with
// injected worker failures and checkpointed resume.

package serd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuitio"
	"repro/internal/netlist"
	"repro/internal/ser"
)

// newTestServerlessCircuit resolves a wire circuit source without a daemon,
// through the same shared parse path the daemon uses.
func newTestServerlessCircuit(src CircuitSource) (*netlist.Circuit, error) {
	return circuitio.Load(src)
}

// discardLogf silences server logs in tests (t.Logf would race with test
// teardown on late goroutines).
func discardLogf(string, ...any) {}

// newTestServer builds a Server and serves it over a real listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = discardLogf
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// c17Bench reads the checked-in c17 netlist as inline source text.
func c17Bench(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// postJSON posts a request body and returns the response.
func postJSON(t *testing.T, client *http.Client, url string, req any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// analyze posts a non-streaming analyze request and decodes the response,
// requiring HTTP 200.
func analyze(t *testing.T, base string, req AnalyzeRequest) AnalyzeResponse {
	t.Helper()
	resp := postJSON(t, http.DefaultClient, base+"/v1/analyze", req)
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: HTTP %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return out
}

// analyzeStream posts a streaming analyze request and returns the raw
// NDJSON lines.
func analyzeStream(t *testing.T, base string, req AnalyzeRequest) []string {
	t.Helper()
	req.Stream = true
	resp := postJSON(t, http.DefaultClient, base+"/v1/analyze", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: HTTP %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream: Content-Type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return lines
}

// decodeStream reconstructs a Report from NDJSON lines, validating the
// frame protocol: header first, node tiles in ascending ID order, exactly
// one terminal total frame.
func decodeStream(t *testing.T, lines []string) (StreamHeader, *ser.Report) {
	t.Helper()
	if len(lines) < 2 {
		t.Fatalf("stream: only %d lines", len(lines))
	}
	var hdr StreamHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Type != FrameHeader {
		t.Fatalf("stream: bad header %q (err %v)", lines[0], err)
	}
	method, err := ser.ParseMethod(hdr.Method)
	if err != nil {
		t.Fatalf("stream: header method %q: %v", hdr.Method, err)
	}
	rep := &ser.Report{Circuit: hdr.Circuit, Method: method, Engine: hdr.Engine}
	sawTotal := false
	for _, line := range lines[1:] {
		if sawTotal {
			t.Fatalf("stream: frame after total: %q", line)
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("stream: bad frame %q: %v", line, err)
		}
		switch probe.Type {
		case FrameNode:
			var n StreamNode
			if err := json.Unmarshal([]byte(line), &n); err != nil {
				t.Fatal(err)
			}
			if n.ID != len(rep.Nodes) {
				t.Fatalf("stream: tile id %d at position %d (not ascending-ID order)", n.ID, len(rep.Nodes))
			}
			rep.Nodes = append(rep.Nodes, ser.NodeSER{
				ID:          netlist.ID(n.ID),
				Name:        n.Name,
				RateFIT:     n.RateFIT,
				PLatched:    n.PLatched,
				PSensitized: n.PSensitized,
				SERFIT:      n.SERFIT,
			})
		case FrameTotal:
			var tot StreamTotal
			if err := json.Unmarshal([]byte(line), &tot); err != nil {
				t.Fatal(err)
			}
			if tot.Nodes != len(rep.Nodes) {
				t.Fatalf("stream: total frame counts %d nodes, saw %d tiles", tot.Nodes, len(rep.Nodes))
			}
			rep.TotalFIT = tot.TotalFIT
			sawTotal = true
		case FrameError:
			t.Fatalf("stream: error frame: %s", line)
		default:
			t.Fatalf("stream: unknown frame type %q", probe.Type)
		}
	}
	if !sawTotal {
		t.Fatalf("stream: no total frame in %d lines", len(lines))
	}
	if hdr.Nodes != len(rep.Nodes) {
		t.Fatalf("stream: header claims %d nodes, got %d tiles", hdr.Nodes, len(rep.Nodes))
	}
	return hdr, rep
}

// requireReportsIdentical compares two Reports bit-for-bit: every float64
// must match on its IEEE-754 bit pattern, not within a tolerance.
func requireReportsIdentical(t *testing.T, label string, got, want *ser.Report) {
	t.Helper()
	if got.Circuit != want.Circuit || got.Method != want.Method || got.Engine != want.Engine {
		t.Fatalf("%s: identity (%q, %v, %q) != (%q, %v, %q)",
			label, got.Circuit, got.Method, got.Engine, want.Circuit, want.Method, want.Engine)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d nodes != %d", label, len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		g, w := &got.Nodes[i], &want.Nodes[i]
		if g.ID != w.ID || g.Name != w.Name ||
			math.Float64bits(g.RateFIT) != math.Float64bits(w.RateFIT) ||
			math.Float64bits(g.PLatched) != math.Float64bits(w.PLatched) ||
			math.Float64bits(g.PSensitized) != math.Float64bits(w.PSensitized) ||
			math.Float64bits(g.SERFIT) != math.Float64bits(w.SERFIT) {
			t.Fatalf("%s: node %d differs: got %+v want %+v", label, i, *g, *w)
		}
	}
	if math.Float64bits(got.TotalFIT) != math.Float64bits(want.TotalFIT) {
		t.Fatalf("%s: TotalFIT %x != %x", label, math.Float64bits(got.TotalFIT), math.Float64bits(want.TotalFIT))
	}
}

// localRun computes the reference Report for a wire request with the direct
// library path: the same circuit resolution and the same options mapping,
// but no daemon in between.
func localRun(t *testing.T, src CircuitSource, opts Options) *ser.Report {
	t.Helper()
	c, err := newTestServerlessCircuit(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := opts.config()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ser.Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestAnalyzeReportMatchesLocalRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		src  CircuitSource
		opts Options
	}{
		{"c17-default", CircuitSource{Bench: c17Bench(t)}, Options{}},
		{"s953-frames4", CircuitSource{Profile: "s953"}, Options{Frames: 4}},
		{"c17-monte-carlo", CircuitSource{Bench: c17Bench(t)}, Options{Method: "monte-carlo", Vectors: 4096, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := localRun(t, tc.src, tc.opts)
			resp := analyze(t, ts.URL, AnalyzeRequest{Circuit: tc.src, Options: tc.opts})
			if resp.Cached {
				t.Fatal("first analyze reported cached")
			}
			requireReportsIdentical(t, tc.name, resp.Report, want)

			// Second request: served from the report cache, same bits.
			again := analyze(t, ts.URL, AnalyzeRequest{Circuit: tc.src, Options: tc.opts})
			if !again.Cached {
				t.Fatal("second analyze not cached")
			}
			if again.Fingerprint != resp.Fingerprint {
				t.Fatalf("fingerprint changed across requests: %s != %s", again.Fingerprint, resp.Fingerprint)
			}
			requireReportsIdentical(t, tc.name+"-cached", again.Report, want)

			// Third request addresses the circuit by content hash only.
			byHash := analyze(t, ts.URL, AnalyzeRequest{Circuit: CircuitSource{Hash: resp.Hash}, Options: tc.opts})
			requireReportsIdentical(t, tc.name+"-by-hash", byHash.Report, want)
		})
	}
}

func TestStreamByteIdenticalToRunAndCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"sp-monte-carlo", Options{SPMethod: "monte-carlo", SPVectors: 4096}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			req := AnalyzeRequest{Circuit: CircuitSource{Profile: "s953"}, Options: tc.opts}
			want := localRun(t, req.Circuit, tc.opts)

			first := analyzeStream(t, ts.URL, req)
			hdr1, rep1 := decodeStream(t, first)
			if hdr1.Cached {
				t.Fatal("first stream claims cached")
			}
			requireReportsIdentical(t, "live-stream", rep1, want)

			// Summing tile SERFITs in arrival order must land on the total
			// frame's bits exactly — the documented client-side
			// reconstruction contract.
			var sum float64
			for i := range rep1.Nodes {
				sum += rep1.Nodes[i].SERFIT
			}
			if math.Float64bits(sum) != math.Float64bits(rep1.TotalFIT) {
				t.Fatalf("tile sum %x != total frame %x", math.Float64bits(sum), math.Float64bits(rep1.TotalFIT))
			}

			second := analyzeStream(t, ts.URL, req)
			hdr2, rep2 := decodeStream(t, second)
			if !hdr2.Cached {
				t.Fatal("second stream not cached")
			}
			requireReportsIdentical(t, "cached-stream", rep2, want)

			// Byte identity from line 2 on: cache status lives only in the
			// header.
			if len(first) != len(second) {
				t.Fatalf("stream lengths differ: %d != %d", len(first), len(second))
			}
			for i := 1; i < len(first); i++ {
				if first[i] != second[i] {
					t.Fatalf("line %d differs between live and cached stream:\n%s\n%s", i, first[i], second[i])
				}
			}

			// The stream path memoized the report: a non-streaming request
			// now hits.
			if got := analyze(t, ts.URL, req); !got.Cached {
				t.Fatal("non-streaming request after stream not cached")
			}
			if st := s.reports.snapshot(); st.Entries == 0 || st.Hits == 0 {
				t.Fatalf("report cache stats after stream+hit: %+v", st)
			}
		})
	}
}

// TestStreamViaAcceptHeader exercises the Accept-negotiated stream switch:
// the bare media type, one with parameters, and one range of a list all
// select NDJSON; an Accept without it keeps JSON.
func TestStreamViaAcceptHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(AnalyzeRequest{Circuit: CircuitSource{Bench: c17Bench(t)}})
	for _, tc := range []struct{ accept, want string }{
		{"application/x-ndjson", "application/x-ndjson"},
		{"application/x-ndjson; charset=utf-8", "application/x-ndjson"},
		{"application/x-ndjson, */*", "application/x-ndjson"},
		{"application/json, Application/X-NDJSON;q=0.9", "application/x-ndjson"},
		{"application/json, */*", "application/json"},
	} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", tc.accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != tc.want {
			t.Fatalf("Accept %q: Content-Type = %q, want %q", tc.accept, ct, tc.want)
		}
	}
}

func TestAnalyzeRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		req    AnalyzeRequest
		status int
	}{
		{"unknown-profile", AnalyzeRequest{Circuit: CircuitSource{Profile: "s0"}}, http.StatusBadRequest},
		{"two-sources", AnalyzeRequest{Circuit: CircuitSource{Profile: "s953", Bench: "x"}}, http.StatusBadRequest},
		{"no-source", AnalyzeRequest{}, http.StatusBadRequest},
		{"bad-method", AnalyzeRequest{Circuit: CircuitSource{Profile: "s953"}, Options: Options{Method: "exactish"}}, http.StatusBadRequest},
		{"bad-engine", AnalyzeRequest{Circuit: CircuitSource{Profile: "s953"}, Options: Options{Engine: "nope"}}, http.StatusBadRequest},
		{"negative-timeout", AnalyzeRequest{Circuit: CircuitSource{Profile: "s953"}, Options: Options{TimeoutMs: -1}}, http.StatusBadRequest},
		{"unknown-hash", AnalyzeRequest{Circuit: CircuitSource{Hash: strings.Repeat("ab", 32)}}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/analyze", tc.req)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d (want %d): %s", resp.StatusCode, tc.status, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q not an ErrorResponse (%v)", body, err)
			}
		})
	}
}

func TestShardEndpointMatchesLocalRange(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := CircuitSource{Profile: "s953"}
	c, err := newTestServerlessCircuit(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := Options{}.config()
	p, err := ser.Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := p.Info()
	lo, hi := 7, 131
	want, err := p.Range(context.Background(), lo, hi)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/shard", ShardRequest{Circuit: src, Lo: lo, Hi: hi})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("shard: HTTP %d: %s", resp.StatusCode, body)
	}
	var sresp ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sresp); err != nil {
		t.Fatal(err)
	}
	if sresp.Fingerprint != info.Fingerprint || sresp.Engine != info.Engine {
		t.Fatalf("shard identity (%s, %s) != (%s, %s)", sresp.Fingerprint, sresp.Engine, info.Fingerprint, info.Engine)
	}
	if sresp.Lo != lo || sresp.Hi != hi || len(sresp.Values) != hi-lo {
		t.Fatalf("shard range echo [%d,%d) x%d", sresp.Lo, sresp.Hi, len(sresp.Values))
	}
	for i, b := range sresp.Values {
		if b != math.Float64bits(want[i]) {
			t.Fatalf("shard value %d: %x != %x", i, b, math.Float64bits(want[i]))
		}
	}

	// Invalid ranges and the word-major sampling engine are refused.
	for name, sreq := range map[string]ShardRequest{
		"inverted":    {Circuit: src, Lo: 10, Hi: 10},
		"oob":         {Circuit: src, Lo: 0, Hi: c.N() + 1},
		"monte-carlo": {Circuit: src, Options: Options{Method: "monte-carlo"}, Lo: 0, Hi: 8},
	} {
		resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/shard", sreq)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s shard request accepted", name)
		}
	}
}

// TestConcurrentMixedRequests hammers one daemon from many goroutines with
// a mix of cached and uncached analyses (distinct monte-carlo seeds stay
// uncached per client) and requires every streamed Report to be
// bit-identical to the direct library run. The CI race job runs this under
// -race, which is the point: the caches, admission gate and stream writers
// all get exercised concurrently.
func TestConcurrentMixedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 4})
	c17 := c17Bench(t)

	shared := []struct {
		name string
		src  CircuitSource
		opts Options
	}{
		{"c17", CircuitSource{Bench: c17}, Options{}},
		{"s953", CircuitSource{Profile: "s953"}, Options{}},
		{"s953-frames4", CircuitSource{Profile: "s953"}, Options{Frames: 4}},
	}
	want := map[string]*ser.Report{}
	for _, v := range shared {
		want[v.name] = localRun(t, v.src, v.opts)
	}
	// Per-goroutine uncached variants: a unique sampling seed each.
	const clients = 8
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("mc-%d", i)
		want[name] = localRun(t, CircuitSource{Bench: c17},
			Options{Method: "monte-carlo", Vectors: 1024, Seed: uint64(1000 + i)})
	}

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				v := shared[(i+round)%len(shared)]
				name, src, opts := v.name, v.src, v.opts
				// Scheduling knobs vary, so clients race on adding and
				// reading report-cache aliases of one entry.
				opts.Workers = 1 + i%3
				if round == 1 {
					// The uncached leg: this goroutine's private seed.
					name = fmt.Sprintf("mc-%d", i)
					src = CircuitSource{Bench: c17}
					opts = Options{Method: "monte-carlo", Vectors: 1024, Seed: uint64(1000 + i)}
				}
				req := AnalyzeRequest{Circuit: src, Options: opts, Stream: true}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				lines, err := readLines(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d %s: HTTP %d", i, name, resp.StatusCode)
					return
				}
				_, rep := decodeStream(t, lines)
				requireReportsIdentical(t, fmt.Sprintf("client-%d-%s", i, name), rep, want[name])
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// readLines is the goroutine-safe (no t.Fatal) stream reader.
func readLines(r io.Reader) ([]string, error) {
	var lines []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}

// TestStreamClientDisconnect proves a mid-stream disconnect cancels the
// sweep promptly and leaks nothing: the admission slot returns to the pool
// and the goroutine count settles back to its pre-request baseline.
func TestStreamClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1})
	client := &http.Client{}

	// Warm the parse cache so the measured request is sweep-only, then
	// settle a goroutine baseline.
	analyze(t, ts.URL, AnalyzeRequest{Circuit: CircuitSource{Profile: "s9234"}, Options: Options{Engine: "epp-scalar"}})
	client.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	// A deliberately slow request (scalar engine, multi-cycle) so the
	// disconnect lands mid-sweep, not after completion.
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(AnalyzeRequest{
		Circuit: CircuitSource{Profile: "s9234"},
		Options: Options{Engine: "epp-scalar", Frames: 4},
		Stream:  true,
	})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// Read the header frame — the sweep is live now — then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	client.CloseIdleConnections()

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := s.adm.snapshot()
		if st.Active == 0 && runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("not drained after disconnect: active=%d goroutines=%d (baseline %d)\n%s",
				st.Active, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The pool is whole again: a fresh request must succeed.
	got := analyze(t, ts.URL, AnalyzeRequest{Circuit: CircuitSource{Bench: c17Bench(t)}})
	if got.Report == nil {
		t.Fatal("post-disconnect analyze returned no report")
	}
}

// TestStreamDeadlineErrorFrame: a live stream whose sweep fails after the
// header went out ends in an error frame naming the failure, after an
// ascending run of node tiles and with no total frame, and is not memoized.
// How many tiles arrive before the deadline does not matter.
func TestStreamDeadlineErrorFrame(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := AnalyzeRequest{
		Circuit: CircuitSource{Profile: "s9234"},
		Options: Options{Engine: "epp-scalar", Frames: 4, TimeoutMs: 1},
		Stream:  true,
	}
	resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/analyze", req)
	lines, err := readLines(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(lines) < 2 {
		t.Fatalf("HTTP %d with %d lines", resp.StatusCode, len(lines))
	}
	var hdr StreamHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Type != FrameHeader {
		t.Fatalf("first line %q (err %v), want the header", lines[0], err)
	}
	last := lines[len(lines)-1]
	var ef StreamError
	if err := json.Unmarshal([]byte(last), &ef); err != nil || ef.Type != FrameError || !strings.Contains(ef.Error, "deadline") {
		t.Fatalf("last line %q (err %v), want an error frame naming the deadline", last, err)
	}
	tiles := lines[1 : len(lines)-1]
	for i, line := range tiles {
		var n StreamNode
		if err := json.Unmarshal([]byte(line), &n); err != nil || n.Type != FrameNode || n.ID != i {
			t.Fatalf("line %d = %q (err %v), want the node tile of ID %d", i+1, line, err, i)
		}
	}
	t.Logf("%d tiles before the error frame", len(tiles))

	req.Options.TimeoutMs = 0
	if hdr, _ := decodeStream(t, analyzeStream(t, ts.URL, req)); hdr.Cached {
		t.Fatal("the failed stream was memoized")
	}
}

// TestAdmissionOverload deterministically drives the daemon into load
// shedding by holding the only pool slot directly, and shows cache hits
// bypass admission entirely.
func TestAdmissionOverload(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1, MaxQueue: -1})
	c17 := CircuitSource{Bench: c17Bench(t)}

	// Prime the report cache while the pool is free.
	primed := analyze(t, ts.URL, AnalyzeRequest{Circuit: c17})

	// Occupy the single slot; with no queue every uncached request must
	// now be shed with 429 immediately.
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/analyze",
		AnalyzeRequest{Circuit: c17, Options: Options{Frames: 4}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("uncached analyze under saturation: HTTP %d (want 429)", resp.StatusCode)
	}
	if st := s.adm.snapshot(); st.Rejected == 0 {
		t.Fatalf("no rejection counted: %+v", st)
	}

	// The cached request sails through the saturated pool.
	hit := analyze(t, ts.URL, AnalyzeRequest{Circuit: c17})
	if !hit.Cached || hit.Fingerprint != primed.Fingerprint {
		t.Fatalf("cache hit under saturation: cached=%v fp=%s", hit.Cached, hit.Fingerprint)
	}

	s.adm.release()
	// Pool free again: the previously shed request now runs.
	ok := analyze(t, ts.URL, AnalyzeRequest{Circuit: c17, Options: Options{Frames: 4}})
	if ok.Cached {
		t.Fatal("post-release analyze unexpectedly cached")
	}
}

func TestAdmissionGate(t *testing.T) {
	a := newAdmission(2, 1)
	ctx := context.Background()
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}

	// Third caller queues; wait until it is visibly queued.
	qctx, qcancel := context.WithCancel(ctx)
	defer qcancel()
	errc := make(chan error, 1)
	go func() { errc <- a.acquire(qctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for a.snapshot().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never queued: %+v", a.snapshot())
		}
		time.Sleep(time.Millisecond)
	}

	// Fourth caller overflows the queue bound.
	if err := a.acquire(ctx); err != ErrOverloaded {
		t.Fatalf("overflow acquire: %v (want ErrOverloaded)", err)
	}

	// The queued caller gives up.
	qcancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled waiter: %v", err)
	}

	a.release()
	if err := a.acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	st := a.snapshot()
	if st.Admitted != 3 || st.Rejected != 1 || st.Canceled != 1 || st.Active != 2 || st.Queued != 0 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestReportCacheEviction(t *testing.T) {
	mk := func(fp string, n int) *cachedReport {
		return &cachedReport{info: ser.Info{Fingerprint: fp}, json: make([]byte, n), ndjson: make([]byte, n)}
	}
	a, b := mk("a", 100), mk("b", 100)
	// Entries are charged their encoded bytes (200 each here). Bound the
	// cache to about one report: inserting the second evicts the first
	// (LRU), never the newcomer.
	rc := newReportCache(300)
	rc.put(a)
	rc.put(b)
	var key aliasKey
	if _, ok := rc.get("a", key); ok {
		t.Fatal("oldest entry survived past the byte bound")
	}
	if got, ok := rc.get("b", key); !ok || got != b {
		t.Fatal("newest entry evicted")
	}
	st := rc.snapshot()
	if st.Evictions != 1 || st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Bytes != 200+key.size() {
		t.Fatalf("stats: %+v", st)
	}

	// A single oversized report is still cached (the bound protects the
	// steady state, not the single entry).
	rc2 := newReportCache(1)
	rc2.put(a)
	if _, ok := rc2.get("a", key); !ok {
		t.Fatal("oversized single entry refused")
	}

	// put of an existing key refreshes rather than duplicates.
	rc.put(b)
	if st := rc.snapshot(); st.Entries != 1 {
		t.Fatalf("duplicate key grew the cache: %+v", st)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	analyze(t, ts.URL, AnalyzeRequest{Circuit: CircuitSource{Bench: c17Bench(t)}})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Circuits.Entries != 1 || st.Reports.Entries != 1 || st.Admission.Admitted != 1 {
		t.Fatalf("stats after one analyze: %+v", st)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", hresp.StatusCode)
	}
}

func TestLoadgenSmoke(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	res, err := Loadgen(context.Background(), LoadgenConfig{
		Target:      ts.URL,
		Request:     AnalyzeRequest{Circuit: CircuitSource{Bench: c17Bench(t)}},
		Concurrency: 2,
		Duration:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Errors != 0 || res.RPS <= 0 || res.P99Ms < res.P50Ms {
		t.Fatalf("loadgen result: %+v", res)
	}
}
