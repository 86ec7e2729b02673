package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/latch"
	"repro/internal/netlist"
	"repro/internal/sigprob"
)

func circuitFile(t testing.TB, name string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegistry(t *testing.T) {
	want := []string{"bdd", "enum", "epp-batch", "epp-scalar", "monte-carlo"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, e.Name())
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup of unknown engine succeeded")
	}
}

// TestEngineTable checks the invariants of the static engine table that a
// registration step would otherwise enforce, for any table: every name is
// non-empty and the names are strictly ascending (so none repeats), each
// resolves to its own engine, and an unknown name's error lists them all.
// TestRegistry pins which five engines the table holds.
func TestEngineTable(t *testing.T) {
	_, unknown := Lookup("nope")
	if unknown == nil {
		t.Fatal("Lookup of unknown engine succeeded")
	}
	for i, e := range engines {
		name := e.Name()
		if name == "" {
			t.Fatalf("engines[%d] has an empty name", i)
		}
		if i > 0 && name <= engines[i-1].Name() {
			t.Fatalf("engines[%d] = %q does not sort after %q", i, name, engines[i-1].Name())
		}
		if got, err := Lookup(name); err != nil || got.Name() != name {
			t.Fatalf("Lookup(%q) = %v, %v", name, got, err)
		}
		if !strings.Contains(unknown.Error(), name) {
			t.Errorf("unknown-engine error %q does not list %q", unknown, name)
		}
	}
}

// TestConformance is the registry-wide agreement suite on the two testdata
// circuits (c17, the majority voter): every registered engine runs the same
// request, then
//
//   - the two analytic engines must agree bitwise (they share the same
//     arithmetic and fold the outputs in the same order), the exact engines
//     pairwise to 1e-9 (they share the same ground truth),
//   - the sampling engine must agree with the exact class within its
//     statistical tolerance,
//   - the analytic class must stay within the known EPP approximation error
//     of ground truth (sanity bound, not a precision claim).
func TestConformance(t *testing.T) {
	for _, file := range []string{"c17.bench", "majority.bench"} {
		t.Run(file, func(t *testing.T) {
			c := circuitFile(t, file)
			sp := sigprob.Topological(c, sigprob.Config{})
			results := map[string][]float64{}
			for _, e := range Engines() {
				req := &Request{Circuit: c, SP: sp, Vectors: 1 << 15, Seed: 3}
				out := make([]float64, c.N())
				if err := e.PSensitizedAll(context.Background(), req, out); err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				results[e.Name()] = out
			}
			assertAgree := func(a, b string, tol float64) {
				t.Helper()
				for id := range results[a] {
					if d := math.Abs(results[a][id] - results[b][id]); d > tol {
						t.Errorf("%s vs %s at node %s: %v vs %v (|diff| %v > %v)",
							a, b, c.NameOf(netlist.ID(id)), results[a][id], results[b][id], d, tol)
					}
				}
			}
			// Within-class agreement: analytic engines bitwise, exact
			// engines to 1e-9.
			for id, b := range results["epp-batch"] {
				if s := results["epp-scalar"][id]; math.Float64bits(b) != math.Float64bits(s) {
					t.Errorf("epp-batch vs epp-scalar at node %s: %v vs %v (not bitwise equal)", c.NameOf(netlist.ID(id)), b, s)
				}
			}
			assertAgree("enum", "bdd", 1e-9)
			// Sampling vs truth: binomial noise at 2^15 vectors is ~2.8e-3
			// per site; 5σ keeps the test deterministic-in-practice.
			assertAgree("monte-carlo", "enum", 5*2.8e-3)
			// Analytic vs truth: bounded by the EPP reconvergence error
			// (measured ≤ 0.094 on these circuits).
			assertAgree("epp-batch", "enum", 0.15)
		})
	}
}

// TestWorkerAndWidthInvariance: the batched engine's results are
// bit-identical across worker counts and batch widths (the kernel is
// packing-invariant), single-cycle and multi-cycle alike.
func TestWorkerAndWidthInvariance(t *testing.T) {
	c, err := gen.ByName("s953")
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})
	e, err := Lookup("epp-batch")
	if err != nil {
		t.Fatal(err)
	}
	for _, frames := range []int{1, 3} {
		base := make([]float64, c.N())
		if err := e.PSensitizedAll(context.Background(), &Request{Circuit: c, SP: sp, Frames: frames, Workers: 1}, base); err != nil {
			t.Fatal(err)
		}
		check := func(what string, req *Request) {
			t.Helper()
			out := make([]float64, c.N())
			if err := e.PSensitizedAll(context.Background(), req, out); err != nil {
				t.Fatal(err)
			}
			for id := range out {
				if out[id] != base[id] {
					t.Fatalf("frames=%d %s: node %d differs: %v vs %v", frames, what, id, out[id], base[id])
				}
			}
		}
		for _, workers := range []int{0, 2, 4, 7} {
			check(fmt.Sprintf("workers=%d", workers), &Request{Circuit: c, SP: sp, Frames: frames, Workers: workers})
		}
		for _, width := range []int{1, 7, 8, 33, 64} {
			check(fmt.Sprintf("width=%d", width), &Request{Circuit: c, SP: sp, Frames: frames, BatchWidth: width})
		}
	}
}

// TestCancellation: a pre-cancelled context returns ctx.Err() promptly from
// every engine, before any (or after at most one batch of) work.
func TestCancellation(t *testing.T) {
	c, err := gen.ByName("s953")
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Engines() {
		out := make([]float64, c.N())
		err := e.PSensitizedAll(ctx, &Request{Circuit: c, SP: sp, Vectors: 256}, out)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.Name(), err)
		}
	}
}

// TestCancellationMidSweep cancels from inside an OnBatch callback and
// checks the sweep stops early rather than draining all nodes.
func TestCancellationMidSweep(t *testing.T) {
	c, err := gen.ByName("s1196")
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})
	e, err := Lookup("epp-batch")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	req := &Request{
		Circuit: c,
		SP:      sp,
		Workers: 1,
		OnBatch: func(lo, hi int) error {
			seen += hi - lo
			if seen >= 64 {
				cancel()
			}
			return nil
		},
	}
	out := make([]float64, c.N())
	if err := e.PSensitizedAll(ctx, req, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen >= c.N() {
		t.Fatalf("sweep drained all %d nodes despite cancellation", c.N())
	}
}

// TestOnBatchError: an OnBatch error aborts the sweep and surfaces
// verbatim, serial and parallel.
func TestOnBatchError(t *testing.T) {
	c, err := gen.ByName("s953")
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})
	e, err := Lookup("epp-batch")
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		calls := 0
		req := &Request{
			Circuit: c,
			SP:      sp,
			Workers: workers,
			OnBatch: func(lo, hi int) error {
				mu.Lock()
				defer mu.Unlock()
				calls++
				if calls == 2 {
					return sentinel
				}
				return nil
			},
		}
		out := make([]float64, c.N())
		if err := e.PSensitizedAll(context.Background(), req, out); !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: err = %v, want sentinel", workers, err)
		}
	}
}

// TestFramesConformance: the batched and scalar engines agree bitwise on
// the multi-cycle detection probability. The composition folds a site's
// outputs in list order, so on s953 the bits depend on both engines
// listing them in ascending node ID.
func TestFramesConformance(t *testing.T) {
	for _, name := range []string{"s953", "s1423"} { // s1423: the FF-heavy profile
		c, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sp := sigprob.Topological(c, sigprob.Config{})
		outs := map[string][]float64{}
		for _, eng := range []string{"epp-batch", "epp-scalar"} {
			e, err := Lookup(eng)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, c.N())
			if err := e.PSensitizedAll(context.Background(), &Request{Circuit: c, SP: sp, Frames: 4, Workers: 1}, out); err != nil {
				t.Fatal(err)
			}
			outs[eng] = out
		}
		for id := range outs["epp-batch"] {
			if math.Float64bits(outs["epp-batch"][id]) != math.Float64bits(outs["epp-scalar"][id]) {
				t.Fatalf("%s frames: node %d: batch %v vs scalar %v", name, id, outs["epp-batch"][id], outs["epp-scalar"][id])
			}
		}
	}
}

// TestMCEngineFrames: the monte-carlo engine accepts multi-cycle requests
// (the old "does not support multi-cycle frames" error path is gone), agrees
// with the analytic multi-cycle engines within sampling noise, is
// bit-identical across worker counts, and proves exactly one good simulation
// per (word, frame) through the Stats counters.
func TestMCEngineFrames(t *testing.T) {
	c, err := gen.ByName("s1423") // FF-heavy profile
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})
	mc, err := Lookup("monte-carlo")
	if err != nil {
		t.Fatal(err)
	}
	const frames, vectors = 4, 1 << 11
	var stats Stats
	base := make([]float64, c.N())
	req := &Request{Circuit: c, Frames: frames, Vectors: vectors, Seed: 11, Workers: 1, Stats: &stats}
	if err := mc.PSensitizedAll(context.Background(), req, base); err != nil {
		t.Fatalf("monte-carlo Frames=%d: %v", frames, err)
	}

	// Good-sim sharing: exactly one good simulation per (word, frame).
	words := int64((vectors + 63) / 64)
	if got := stats.Words.Load(); got != words {
		t.Errorf("Words = %d, want %d", got, words)
	}
	if got := stats.GoodSims.Load(); got != words*frames {
		t.Errorf("GoodSims = %d, want %d (one per word per frame)", got, words*frames)
	}

	// Worker invariance: integer detection counts, bit-identical results.
	for _, workers := range []int{2, 0} {
		out := make([]float64, c.N())
		req := &Request{Circuit: c, Frames: frames, Vectors: vectors, Seed: 11, Workers: workers}
		if err := mc.PSensitizedAll(context.Background(), req, out); err != nil {
			t.Fatal(err)
		}
		for id := range out {
			if out[id] != base[id] {
				t.Fatalf("workers=%d: node %d differs: %v vs %v", workers, id, out[id], base[id])
			}
		}
	}

	// Statistical agreement with the analytic multi-cycle composition: the
	// sampling estimate is unbiased, the analytic one carries the EPP
	// independence error, so hold the mean |diff| to the documented bound
	// rather than per-site noise.
	epp, err := Lookup("epp-batch")
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, c.N())
	if err := epp.PSensitizedAll(context.Background(), &Request{Circuit: c, SP: sp, Frames: frames}, ref); err != nil {
		t.Fatal(err)
	}
	sumAbs := 0.0
	for id := range ref {
		sumAbs += math.Abs(base[id] - ref[id])
	}
	if mean := sumAbs / float64(c.N()); mean > 0.08 {
		t.Errorf("mean |monte-carlo - epp-batch| at Frames=%d: %v > 0.08", frames, mean)
	}
}

// TestAnalyticFramesWorkers: the multi-cycle sweeps of both analytic
// engines honor Request.Workers (epp-scalar used to hardcode a single
// worker; epp-batch used to run a serial multi-cycle sweep) and stay
// bit-identical at any worker count — every worker composes its
// packing-invariant strike sweeps with the request's one shared flip-flop
// lookahead — and so do their swept-node counters, which count that
// lookahead's sweep once.
func TestAnalyticFramesWorkers(t *testing.T) {
	c, err := gen.ByName("s1423")
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})
	for _, name := range []string{"epp-batch", "epp-scalar"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		base := make([]float64, c.N())
		var baseSt Stats
		if err := e.PSensitizedAll(context.Background(), &Request{Circuit: c, SP: sp, Frames: 3, Workers: 1, Stats: &baseSt}, base); err != nil {
			t.Fatal(err)
		}
		if baseSt.SweptNodes.Load() == 0 {
			t.Errorf("%s: no swept nodes counted at Frames=3", name)
		}
		for _, workers := range []int{2, 4, 0} {
			out := make([]float64, c.N())
			var st Stats
			if err := e.PSensitizedAll(context.Background(), &Request{Circuit: c, SP: sp, Frames: 3, Workers: workers, Stats: &st}, out); err != nil {
				t.Fatal(err)
			}
			for id := range out {
				if out[id] != base[id] {
					t.Fatalf("%s workers=%d: node %d differs: %v vs %v", name, workers, id, out[id], base[id])
				}
			}
			if got, want := st.SweptNodes.Load(), baseSt.SweptNodes.Load(); got != want {
				t.Errorf("%s workers=%d: SweptNodes = %d, %d at one worker", name, workers, got, want)
			}
		}
	}
}

// TestWeightedBatchMatchesScalar: with a latch model coupled into a
// three-frame request, at strike weights 0, 0.18 (the default model) and
// 1, the batched engine's composition equals the scalar engine's bitwise,
// site for site, at one and three workers — the property the parallel
// engine distribution relies on.
func TestWeightedBatchMatchesScalar(t *testing.T) {
	c := gen.SmallRandomSequential(17)
	sp := sigprob.Topological(c, sigprob.Config{})
	models := []latch.Model{
		{ClockPeriodPs: 1000, PulseWidthPs: 0, WindowPs: 0, AttenuationPerLevel: 1},
		latch.Default(),
		{ClockPeriodPs: 1000, PulseWidthPs: 1000, WindowPs: 30, AttenuationPerLevel: 1},
	}
	for i, want := range []float64{0, 0.18, 1} {
		lm := models[i]
		if w := lm.FrameWeight(0); w != want {
			t.Fatalf("model %d: strike weight %v, want %v", i, w, want)
		}
		for _, workers := range []int{1, 3} {
			outs := map[string][]float64{}
			for _, name := range []string{"epp-batch", "epp-scalar"} {
				e, err := Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]float64, c.N())
				req := &Request{Circuit: c, SP: sp, Frames: 3, Latch: &lm, Workers: workers}
				if err := e.PSensitizedAll(context.Background(), req, out); err != nil {
					t.Fatal(err)
				}
				outs[name] = out
			}
			for id, b := range outs["epp-batch"] {
				if s := outs["epp-scalar"][id]; math.Float64bits(b) != math.Float64bits(s) {
					t.Fatalf("weight %v workers %d site %d: batch %v != scalar %v", want, workers, id, b, s)
				}
			}
		}
	}
}

// TestOnProgress: every engine reports monotone OnProgress counts in node
// units, ending exactly at (N, N) — including the word-major monte-carlo
// engine, whose progress must tick incrementally (more than one call) even
// though its per-site results finalize together, single- and multi-cycle.
func TestOnProgress(t *testing.T) {
	c, err := gen.ByName("s953")
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})
	cases := []struct {
		name   string
		frames int
	}{
		{"epp-batch", 1}, {"epp-batch", 3},
		{"epp-scalar", 1}, {"epp-scalar", 3},
		{"monte-carlo", 1}, {"monte-carlo", 3},
	}
	for _, tc := range cases {
		e, err := Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		// The callback runs on sweep worker goroutines under the engines'
		// progress mutex, so record the pairs and assert only after the
		// sweep returns — a t.Fatalf from inside would strand the mutex.
		var seen [][2]int
		req := &Request{
			Circuit: c, SP: sp, Frames: tc.frames, Vectors: 512, Workers: 1,
			OnProgress: func(done, total int) {
				seen = append(seen, [2]int{done, total})
			},
		}
		out := make([]float64, c.N())
		if err := e.PSensitizedAll(context.Background(), req, out); err != nil {
			t.Fatalf("%s frames=%d: %v", tc.name, tc.frames, err)
		}
		last := 0
		for i, s := range seen {
			if s[1] != c.N() {
				t.Fatalf("%s frames=%d: call %d total = %d, want %d", tc.name, tc.frames, i, s[1], c.N())
			}
			if s[0] < last {
				t.Fatalf("%s frames=%d: progress went backwards: %d after %d", tc.name, tc.frames, s[0], last)
			}
			last = s[0]
		}
		if last != c.N() {
			t.Errorf("%s frames=%d: final progress %d, want %d", tc.name, tc.frames, last, c.N())
		}
		if len(seen) < 2 {
			t.Errorf("%s frames=%d: OnProgress fired %d times, want incremental reporting", tc.name, tc.frames, len(seen))
		}
	}
}

// TestEngineErrors: unsupported configurations fail descriptively.
func TestEngineErrors(t *testing.T) {
	c := circuitFile(t, "c17.bench")
	bias := make([]float64, c.N())
	cases := []struct {
		name string
		req  Request
	}{
		{"enum", Request{Circuit: c, Frames: 2}},
		{"enum", Request{Circuit: c, Bias: bias}},
		{"bdd", Request{Circuit: c, Frames: 2}},
	}
	for _, tc := range cases {
		e, err := Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, c.N())
		if err := e.PSensitizedAll(context.Background(), &tc.req, out); err == nil {
			t.Errorf("%s with %+v: no error", tc.name, tc.req)
		}
	}
	// Mis-sized output slice.
	e, _ := Lookup("epp-batch")
	if err := e.PSensitizedAll(context.Background(), &Request{Circuit: c}, make([]float64, 3)); err == nil {
		t.Error("short output slice accepted")
	}
}

// TestOnBatchCoversAllNodes: the serial batch hooks tile [0, N) exactly.
func TestOnBatchCoversAllNodes(t *testing.T) {
	c, err := gen.ByName("s953")
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})
	for _, name := range []string{"epp-batch", "epp-scalar", "monte-carlo"} {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		req := &Request{
			Circuit: c, SP: sp, Workers: 1, Vectors: 64,
			OnBatch: func(lo, hi int) error {
				if lo != next {
					return fmt.Errorf("batch starts at %d, want %d", lo, next)
				}
				next = hi
				return nil
			},
		}
		out := make([]float64, c.N())
		if err := e.PSensitizedAll(context.Background(), req, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if next != c.N() {
			t.Fatalf("%s: batches covered [0,%d), want [0,%d)", name, next, c.N())
		}
	}
}

// TestBatchEngineOrderInvariance: with OrderedSweep the epp-batch engine
// sweeps ascending IDs (the streaming contract), without it the
// cone-locality schedule — and the two must produce bit-identical outputs
// (the kernel's packing invariance is what lets Run and RunStream agree
// exactly).
func TestBatchEngineOrderInvariance(t *testing.T) {
	c, err := gen.ByName("s1196")
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})
	e, err := Lookup("epp-batch")
	if err != nil {
		t.Fatal(err)
	}
	scheduled := make([]float64, c.N())
	if err := e.PSensitizedAll(context.Background(), &Request{Circuit: c, SP: sp}, scheduled); err != nil {
		t.Fatal(err)
	}
	byID := make([]float64, c.N())
	req := &Request{Circuit: c, SP: sp, OrderedSweep: true, OnBatch: func(lo, hi int) error { return nil }}
	if err := e.PSensitizedAll(context.Background(), req, byID); err != nil {
		t.Fatal(err)
	}
	for id := range byID {
		if scheduled[id] != byID[id] {
			t.Fatalf("node %d: scheduled %v != by-ID %v (must be bit-identical)", id, scheduled[id], byID[id])
		}
	}
}

// TestStatsCounters: the work counters quantify the kernel wins — the
// batched EPP engine's swept-nodes-per-site, the monte-carlo engine's
// one-good-sim-per-word invariant and its event-driven gate visits.
func TestStatsCounters(t *testing.T) {
	c, err := gen.ByName("s953")
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})

	var epp Stats
	e, _ := Lookup("epp-batch")
	out := make([]float64, c.N())
	if err := e.PSensitizedAll(context.Background(), &Request{Circuit: c, SP: sp, Stats: &epp}, out); err != nil {
		t.Fatal(err)
	}
	if got := epp.Sites.Load(); got != int64(c.N()) {
		t.Errorf("epp-batch Sites = %d, want %d", got, c.N())
	}
	if epp.SweptNodesPerSite() <= 0 {
		t.Errorf("epp-batch SweptNodesPerSite = %v, want > 0", epp.SweptNodesPerSite())
	}
	var seqStats Stats
	if err := e.PSensitizedAll(context.Background(), &Request{Circuit: c, SP: sp, Frames: 3, Stats: &seqStats}, out); err != nil {
		t.Fatal(err)
	}
	if got := seqStats.Sites.Load(); got != int64(c.N()) {
		t.Errorf("epp-batch Frames=3 Sites = %d, want %d", got, c.N())
	}
	if seqStats.SweptNodesPerSite() <= 0 {
		t.Errorf("epp-batch Frames=3 SweptNodesPerSite = %v, want > 0", seqStats.SweptNodesPerSite())
	}

	var mc Stats
	m, _ := Lookup("monte-carlo")
	vectors := 500 // 8 words
	if err := m.PSensitizedAll(context.Background(), &Request{Circuit: c, Vectors: vectors, Seed: 2, Stats: &mc}, out); err != nil {
		t.Fatal(err)
	}
	words := int64((vectors + 63) / 64)
	if got := mc.Words.Load(); got != words {
		t.Errorf("monte-carlo Words = %d, want %d", got, words)
	}
	if got := mc.GoodSims.Load(); got != words {
		t.Errorf("monte-carlo GoodSims = %d, want %d (exactly one per word)", got, words)
	}
	if got := mc.GoodSimsPerWord(); got != 1 {
		t.Errorf("GoodSimsPerWord = %v, want exactly 1", got)
	}
	// 8 words are two blocks; the sweep evaluates 33,280 gates on them.
	if got := mc.SweptNodes.Load(); got != 33280 {
		t.Errorf("monte-carlo SweptNodes = %d, want the kernel's 33280 gate visits", got)
	}
}

// TestRulesWiring: Request.Rules reaches both analytic engines (the
// no-polarity ablation must change results where polarity matters and the
// two engines must agree under every rule set), is rejected for multi-cycle
// frames, and is ignored by the sampling engine.
func TestRulesWiring(t *testing.T) {
	// The reconvergent XOR-style structure where polarity tracking matters:
	// a NOT and a BUF path reconverging on an OR.
	c := circuitFile(t, "c17.bench")
	sp := sigprob.Topological(c, sigprob.Config{})
	results := map[core.RuleSet]map[string][]float64{}
	for _, rs := range []core.RuleSet{core.RulesClosedForm, core.RulesPairwise, core.RulesNoPolarity} {
		results[rs] = map[string][]float64{}
		for _, name := range []string{"epp-batch", "epp-scalar"} {
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, c.N())
			if err := e.PSensitizedAll(context.Background(), &Request{Circuit: c, SP: sp, Rules: rs}, out); err != nil {
				t.Fatalf("%s rules %v: %v", name, rs, err)
			}
			results[rs][name] = out
		}
		for id := range results[rs]["epp-batch"] {
			if d := math.Abs(results[rs]["epp-batch"][id] - results[rs]["epp-scalar"][id]); d > 1e-12 {
				t.Errorf("rules %v node %d: batch %v vs scalar %v", rs,
					id, results[rs]["epp-batch"][id], results[rs]["epp-scalar"][id])
			}
		}
	}
	// Closed-form and pairwise are equivalent formulations; no-polarity is
	// the lossy ablation and must diverge somewhere on c17 (it has
	// reconvergent fanout with inversions).
	agree := func(a, b map[string][]float64) bool {
		for id := range a["epp-batch"] {
			if math.Abs(a["epp-batch"][id]-b["epp-batch"][id]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if !agree(results[core.RulesClosedForm], results[core.RulesPairwise]) {
		t.Error("closed-form and pairwise rules disagree (they are the same math)")
	}
	if agree(results[core.RulesClosedForm], results[core.RulesNoPolarity]) {
		t.Error("no-polarity ablation changed nothing on c17 — wiring suspect")
	}
	// Frames > 1 rejects a non-default rule set on both engines.
	for _, name := range []string{"epp-batch", "epp-scalar"} {
		e, _ := Lookup(name)
		out := make([]float64, c.N())
		err := e.PSensitizedAll(context.Background(),
			&Request{Circuit: c, SP: sp, Frames: 3, Rules: core.RulesPairwise}, out)
		if err == nil {
			t.Errorf("%s: Frames+Rules accepted", name)
		}
	}
}

// TestLatchWeightedConformance is the latch-window acceptance suite: with a
// latch model coupled into the multi-cycle request, the two analytic engines
// stay bit-compatible with each other, the monte-carlo engine tracks them
// within the documented mean |diff| <= 0.08 on c17, majority and a random
// sequential circuit at frames 1, 2 and 4, the weighted estimate never
// exceeds the unweighted one, and results stay bit-identical across worker
// counts.
func TestLatchWeightedConformance(t *testing.T) {
	lm := latch.Default()
	circuits := map[string]*netlist.Circuit{
		"c17":       circuitFile(t, "c17.bench"),
		"majority":  circuitFile(t, "majority.bench"),
		"small-seq": gen.SmallRandomSequential(77),
	}
	for name, c := range circuits {
		sp := sigprob.Topological(c, sigprob.Config{})
		for _, frames := range []int{1, 2, 4} {
			run := func(engName string, workers int, withLatch bool) []float64 {
				t.Helper()
				e, err := Lookup(engName)
				if err != nil {
					t.Fatal(err)
				}
				req := &Request{Circuit: c, SP: sp, Frames: frames, Vectors: 1 << 13, Seed: 9, Workers: workers}
				if withLatch {
					req.Latch = &lm
				}
				out := make([]float64, c.N())
				if err := e.PSensitizedAll(context.Background(), req, out); err != nil {
					t.Fatalf("%s %s frames=%d: %v", name, engName, frames, err)
				}
				return out
			}
			batch := run("epp-batch", 1, true)
			scalar := run("epp-scalar", 1, true)
			mc := run("monte-carlo", 1, true)
			plainBatch := run("epp-batch", 1, false)
			plainMC := run("monte-carlo", 1, false)

			sum := 0.0
			for id := range batch {
				if d := math.Abs(batch[id] - scalar[id]); d > 1e-9 {
					t.Fatalf("%s frames=%d node %d: epp-batch %v vs epp-scalar %v", name, frames, id, batch[id], scalar[id])
				}
				if batch[id] > plainBatch[id]+1e-15 {
					t.Fatalf("%s frames=%d node %d: weighted %v exceeds unweighted %v", name, frames, id, batch[id], plainBatch[id])
				}
				if mc[id] > plainMC[id]+1e-15 {
					t.Fatalf("%s frames=%d node %d: weighted MC %v exceeds unweighted %v", name, frames, id, mc[id], plainMC[id])
				}
				sum += math.Abs(batch[id] - mc[id])
			}
			if mean := sum / float64(c.N()); mean > 0.08 {
				t.Errorf("%s frames=%d: mean |epp-batch − monte-carlo| = %v > 0.08 (latch-weighted)", name, frames, mean)
			}

			// Worker invariance under weighting, all three engines.
			for _, engName := range []string{"epp-batch", "epp-scalar", "monte-carlo"} {
				base := run(engName, 1, true)
				for _, workers := range []int{2, 0} {
					got := run(engName, workers, true)
					for id := range got {
						if got[id] != base[id] {
							t.Fatalf("%s %s frames=%d workers=%d node %d: %v != %v",
								name, engName, frames, workers, id, got[id], base[id])
						}
					}
				}
			}
		}
	}
}
