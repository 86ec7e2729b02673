package simulate

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// TestMCBatchMatchesPerSite is the kernel's conformance suite: for every
// site of random sequential circuits, the batched estimate must equal a
// per-site MonteCarlo run in the shared-vector regime BIT-EXACTLY — same
// detection counts, same vectors, same standard error. Faulty evaluation is
// FaultySim's arithmetic over the same cone against the same good values,
// so any divergence is a propagation or blocking bug, not noise.
func TestMCBatchMatchesPerSite(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		c := gen.SmallRandomSequential(seed + 50)
		opt := MCOptions{Vectors: 256, Seed: seed + 1}
		mb := NewMCBatch(c, opt)
		got, _, _, err := sweepAll(context.Background(), mb, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.N() {
			t.Fatalf("seed %d: %d results for %d nodes", seed, len(got), c.N())
		}
		optShared := opt
		optShared.SharedVectors = true
		ps := NewMonteCarlo(c, optShared)
		for id := 0; id < c.N(); id++ {
			if want := ps.EPP(netlist.ID(id)); !matchesMC(got[id], want) {
				t.Fatalf("seed %d site %d: batched %+v, per-site shared %+v", seed, id, got[id], want)
			}
		}
	}
}

// matchesMC reports whether a single-cycle MCBatch estimate equals a
// per-site MonteCarlo one field for field: Detected, Trials as Vectors,
// PDetect as PSensitized and StdErr, with no later-frame detections.
func matchesMC(got SeqResult, want MCResult) bool {
	return got.Site == want.Site && got.Detected == want.Detected && got.Trials == want.Vectors &&
		got.PDetect == want.PSensitized && got.StdErr == want.StdErr && got.DetectedLater == 0
}

// TestMCBatchWorkerInvariance: detection counts are summed integers, so the
// result is identical at any worker count.
func TestMCBatchWorkerInvariance(t *testing.T) {
	c := gen.SmallRandomSequential(61)
	mb := NewMCBatch(c, MCOptions{Vectors: 512, Seed: 7})
	base, _, _, err := sweepAll(context.Background(), mb, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		got, _, _, err := sweepAll(context.Background(), mb, workers)
		if err != nil {
			t.Fatal(err)
		}
		for id := range got {
			if got[id] != base[id] {
				t.Fatalf("workers=%d site %d: %+v != %+v", workers, id, got[id], base[id])
			}
		}
	}
}

// TestMCBatchGoodSimInvariant: exactly one good simulation per 64-vector
// word, regardless of site count — the defining counter of the kernel. The
// per-site estimator pays words × sites.
func TestMCBatchGoodSimInvariant(t *testing.T) {
	c := gen.SmallRandomSequential(42)
	vectors := 1000 // rounds up to 16 words
	mb := NewMCBatch(c, MCOptions{Vectors: vectors, Seed: 1})
	res, tot, visits, err := sweepAll(context.Background(), mb, 3)
	if err != nil {
		t.Fatal(err)
	}
	words := int64((vectors + 63) / 64)
	if tot.Words != words || tot.GoodSims != words {
		t.Fatalf("Words = %d, GoodSims = %d, want both %d", tot.Words, tot.GoodSims, words)
	}
	if len(res) != c.N() {
		t.Fatalf("%d results, want %d", len(res), c.N())
	}
	if perSite := words * int64(c.N()); perSite < 5*tot.GoodSims {
		t.Fatalf("good-sim saving %d/%d < 5x", perSite, tot.GoodSims)
	}
	if visits <= 0 {
		t.Fatalf("visits = %d, want a positive count", visits)
	}
}

// TestMCBatchUnobservableSites: sites with no reachable observation point
// are skipped by the sweep and report P = 0 with full vector accounting.
func TestMCBatchUnobservableSites(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
dead = AND(a, b)
y = OR(a, b)
`)
	mb := NewMCBatch(c, MCOptions{Vectors: 128, Seed: 3})
	out, _, _, err := sweepAll(context.Background(), mb, 1)
	if err != nil {
		t.Fatal(err)
	}
	dead := c.ByName("dead")
	if out[dead].PDetect != 0 || out[dead].Detected != 0 {
		t.Fatalf("dead node: %+v, want P = 0", out[dead])
	}
	if out[dead].Trials != 128 {
		t.Fatalf("dead node vectors = %d, want 128", out[dead].Trials)
	}
	if got := c.N() - len(mb.sites); got != 1 {
		t.Fatalf("%d unobservable sites, want 1 (just the dead gate)", got)
	}
	// And an always-observed site: a is a PO's fanin through OR... the PO
	// itself must be P = 1 (its own flip is always visible).
	y := c.ByName("y")
	if out[y].PDetect != 1 {
		t.Fatalf("PO site: %+v, want P = 1", out[y])
	}
}

// TestMCBatchCancellation: a pre-cancelled context aborts before (or
// promptly after) the first word and surfaces ctx.Err().
func TestMCBatchCancellation(t *testing.T) {
	c := gen.SmallRandomSequential(13)
	mb := NewMCBatch(c, MCOptions{Vectors: 1 << 14, Seed: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := sweepAll(ctx, mb, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMonteCarloSeedGolden pins one MCResult per vector regime for a fixed
// seed, making the reproducibility contract explicit: the per-site regime
// must keep producing the historical stream, and the shared regime (the
// monte-carlo engine's, via MCBatch) is versioned by wordSeed. If either
// value changes, a seeding change has silently broken reproducibility.
func TestMonteCarloSeedGolden(t *testing.T) {
	c := gen.SmallRandomSequential(1)
	site := netlist.ID(2) // mid-probability site: 0.1 < P < 0.9, regimes differ
	perSite := NewMonteCarlo(c, MCOptions{Vectors: 1024, Seed: 1}).EPP(site)
	shared := NewMonteCarlo(c, MCOptions{Vectors: 1024, Seed: 1, SharedVectors: true}).EPP(site)
	t.Logf("per-site: %v", perSite)
	t.Logf("shared:   %v", shared)
	if got, want := perSite.Detected, 134; got != want {
		t.Errorf("per-site regime: Detected = %d, want %d (seed stream changed!)", got, want)
	}
	if got, want := shared.Detected, 121; got != want {
		t.Errorf("shared regime: Detected = %d, want %d (wordSeed stream changed!)", got, want)
	}
	// MCBatch inherits the shared-regime value verbatim.
	batched, _, _, err := sweepAll(context.Background(), NewMCBatch(c, MCOptions{Vectors: 1024, Seed: 1}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if batched[site].Detected != shared.Detected {
		t.Errorf("MCBatch Detected = %d, want shared-regime %d", batched[site].Detected, shared.Detected)
	}
}

// TestMCBatchVisits is the work gate of the event-driven sweep: the gates
// it evaluates are a deterministic count, identical at any worker count,
// and on s9234 a small share of the gates — a site's sweep visits only the
// fanouts of nodes that diverged, so masked upsets stop costing work. A
// return to sweeping whole cones fails the bound.
func TestMCBatchVisits(t *testing.T) {
	c, err := gen.ByName("s9234")
	if err != nil {
		t.Fatal(err)
	}
	opt := MCOptions{Vectors: 512, Seed: 1}
	for _, tc := range []struct {
		frames  int
		maxFrac float64 // bound on visits per (site, block, frame) over the gate count
	}{{1, 0.03}, {4, 0.01}} {
		var mb *MCBatch
		if tc.frames == 1 {
			mb = NewMCBatch(c, opt)
		} else {
			mb = NewMCSeqBatch(c, opt, tc.frames)
		}
		var visits [3]int64
		for i, workers := range []int{1, 2, 4} {
			_, _, v, err := sweepAll(context.Background(), mb, workers)
			if err != nil {
				t.Fatal(err)
			}
			visits[i] = v
		}
		if visits[0] <= 0 || visits[1] != visits[0] || visits[2] != visits[0] {
			t.Fatalf("frames=%d: Visits %v at 1, 2 and 4 workers, want one positive count", tc.frames, visits)
		}
		gates := int64(c.Stats().Gates)
		sites := int64(len(mb.sites))
		blocks := int64((opt.Words() + MCBlock - 1) / MCBlock)
		frac := float64(visits[0]) / float64(sites*blocks*int64(tc.frames)*gates)
		t.Logf("frames=%d: %d visits, %.4f of the gates per (site, block, frame)", tc.frames, visits[0], frac)
		if frac > tc.maxFrac {
			t.Errorf("frames=%d: %.4f of the gates visited per (site, block, frame), want <= %v", tc.frames, frac, tc.maxFrac)
		}
	}
}

// TestMCBatchWorkPins pins the gates the sweep evaluates on s953 and s9234
// in both modes at 128 and 320 vectors (one block, and two full blocks and
// a partial one). A change to how the sweep is stored or scheduled must
// not change what it counts.
func TestMCBatchWorkPins(t *testing.T) {
	for _, tc := range []struct {
		circuit         string
		frames, vectors int
		visits          int64
	}{
		{"s953", 1, 128, 15647},
		{"s953", 3, 128, 41447},
		{"s953", 3, 320, 80099},
		{"s9234", 1, 128, 322828},
		{"s9234", 3, 128, 432295},
		{"s9234", 1, 320, 639195},
	} {
		c, err := gen.ByName(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		opt := MCOptions{Vectors: tc.vectors, Seed: 1}
		mb := NewMCBatch(c, opt)
		if tc.frames > 1 {
			mb = NewMCSeqBatch(c, opt, tc.frames)
		}
		_, _, got, err := sweepAll(context.Background(), mb, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.visits {
			t.Errorf("%s frames %d vectors %d: Visits %d, want %d", tc.circuit, tc.frames, tc.vectors, got, tc.visits)
		}
	}
}

// TestNewMCBatchRetainedHeap bounds what a built estimator keeps: ranks,
// the observation mask and the observable sites, O(N) words. Anything kept
// per site cone would take tens of MB on this 20k-gate circuit, whose cones
// span most of it.
func TestNewMCBatchRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-gate circuit")
	}
	c := gen.MustRandom(gen.Params{Seed: 1, Gates: 20000, PIs: 400, POs: 400, FFs: 1333})
	c.ObsSignatures() // computed once per circuit and cached on it: not the estimator's
	before := heapAlloc()
	mb := NewMCBatch(c, MCOptions{Vectors: 64, Seed: 1})
	retained := heapAlloc() - before
	runtime.KeepAlive(mb)
	t.Logf("NewMCBatch retains %.2f MB on %d nodes", float64(retained)/1e6, c.N())
	if retained >= 4<<20 {
		t.Errorf("NewMCBatch retains %d bytes, want < 4 MiB", retained)
	}
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// checkMatchesPerSiteAllFrames holds the batched kernel to the per-site
// shared-vector estimators bit-exactly on circuit c: single-cycle against
// MonteCarlo, and frame budgets 1 to 4 against Sequential.
func checkMatchesPerSiteAllFrames(t *testing.T, c *netlist.Circuit) []SeqResult {
	t.Helper()
	opt := MCOptions{Vectors: 256, Seed: 3}
	single, _, _, err := sweepAll(context.Background(), NewMCBatch(c, opt), 2)
	if err != nil {
		t.Fatal(err)
	}
	shared := opt
	shared.SharedVectors = true
	ps := NewMonteCarlo(c, shared)
	for id := 0; id < c.N(); id++ {
		if want := ps.EPP(netlist.ID(id)); !matchesMC(single[id], want) {
			t.Fatalf("site %s: batched %+v, per-site shared %+v", c.NameOf(netlist.ID(id)), single[id], want)
		}
	}
	for frames := 1; frames <= 4; frames++ {
		got, _, _, err := sweepAll(context.Background(), NewMCSeqBatch(c, opt, frames), 2)
		if err != nil {
			t.Fatal(err)
		}
		seq := NewSequential(c, SeqOptions{Frames: frames, Trials: opt.Vectors, Seed: opt.Seed, SharedVectors: true})
		for id := 0; id < c.N(); id++ {
			if want := seq.PDetect(netlist.ID(id)); got[id] != want {
				t.Fatalf("frames=%d site %s: batched %+v, per-site shared %+v",
					frames, c.NameOf(netlist.ID(id)), got[id], want)
			}
		}
	}
	return single
}

// TestMCBatchDivergenceEdgeCases exercises each branch of the
// divergence-driven sweep on hand-built netlists, bit-exactly against the
// per-site estimators.
func TestMCBatchDivergenceEdgeCases(t *testing.T) {
	t.Run("masked-at-first-gate", func(t *testing.T) {
		// A strike on s dies at an AND with a constant-0 side input: no
		// gate downstream of m is ever evaluated for it.
		b := netlist.NewBuilder("masked")
		a, e := b.Input("a"), b.Input("e")
		zero := b.Const("zero", false)
		s := b.Not("s", a)
		m := b.And("m", s, zero)
		y := b.Or("y", b.Buf("p", m), e)
		b.MarkOutput(y)
		b.MarkOutput(b.Xor("w", a, e))
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		got := checkMatchesPerSiteAllFrames(t, c)
		if got[s].Detected != 0 || got[m].Detected == 0 {
			t.Fatalf("s detected %d times, m %d: want 0 and > 0", got[s].Detected, got[m].Detected)
		}
	})
	t.Run("reconvergent-cancellation", func(t *testing.T) {
		// s feeds both inputs of x1 directly and both inputs of x2 through
		// opposite paths: both fanins diverge and the XORs cancel the flip.
		c := mustParse(t, `
INPUT(a)
INPUT(e)
OUTPUT(y)
OUTPUT(z)
s = NAND(a, e)
x1 = XOR(s, s)
p = BUFF(s)
n = NOT(s)
x2 = XOR(p, n)
y = OR(x1, e)
z = AND(x2, a)
`)
		got := checkMatchesPerSiteAllFrames(t, c)
		if s := c.ByName("s"); got[s].Detected != 0 {
			t.Fatalf("s detected %d times, want 0 (cancelled at the XORs)", got[s].Detected)
		}
	})
	t.Run("carried-equals-good", func(t *testing.T) {
		// Every site reaches d structurally, but b's divergence is masked
		// before d, so d never differs and nothing is carried for b, while
		// a's and c's strikes reach q in some patterns.
		c := mustParse(t, `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(z)
na = NOT(a)
zero = AND(a, na)
mk = AND(b, zero)
t = AND(q, c)
d = OR(a, mk, t)
q = DFF(d)
q2 = DFF(q)
y = XOR(q, c)
z = BUFF(q2)
`)
		checkMatchesPerSiteAllFrames(t, c)
		for _, frames := range []int{2, 4} {
			got, _, _, err := sweepAll(context.Background(), NewMCSeqBatch(c, MCOptions{Vectors: 256, Seed: 3}, frames), 1)
			if err != nil {
				t.Fatal(err)
			}
			if b := c.ByName("b"); got[b].Detected != 0 {
				t.Fatalf("frames=%d: b detected %d times, want 0 (masked before the flip-flop)", frames, got[b].Detected)
			}
			if a := c.ByName("a"); got[a].DetectedLater == 0 {
				t.Fatalf("frames=%d: a never detected after the edge", frames)
			}
		}
	})
	t.Run("flip-flop-site-carries-own-lane", func(t *testing.T) {
		// q's strike reaches its own D input through n, and no other site
		// reaches it: q must still carry its divergence across the edge.
		// 150 unrelated inverters put n and q far apart in any site order.
		var src strings.Builder
		for i := range 150 {
			fmt.Fprintf(&src, "INPUT(i%d)\nOUTPUT(o%d)\no%d = NOT(i%d)\n", i, i, i, i)
		}
		src.WriteString("OUTPUT(z)\nn = NOT(q)\nq = DFF(n)\nz = BUFF(q)\n")
		c := mustParse(t, src.String())
		checkMatchesPerSiteAllFrames(t, c)
	})
}

// TestMCBatchGateArity holds the sweep's block evaluation of every gate
// kind (AND, NAND, OR, NOR, XOR, XNOR, BUF, NOT) to the per-site
// estimators bit-exactly, at fanin 1, 2, 3 and 5 of every AND/OR kind, with
// sites whose divergence reaches a gate on one fanin and on several — a and
// s feed several gates twice, nor2 reads s on both fanins — and flip-flops
// carrying divergence into later frames.
func TestMCBatchGateArity(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y1)
OUTPUT(y2)
OUTPUT(or5)
OUTPUT(nor1)
s = NAND(a, b)
p = BUFF(a)
nb = NOT(b)
x = XOR(s, c, q1)
xn = XNOR(p, d)
and1 = AND(s)
nand1 = NAND(x)
or1 = OR(xn)
nor1 = NOR(q2)
and2 = AND(s, c)
nand2 = NAND(a, p)
or2 = OR(nb, e)
nor2 = NOR(s, s)
and3 = AND(a, s, d)
nand3 = NAND(x, xn, q1)
or3 = OR(p, nb, c)
nor3 = NOR(a, b, e)
and5 = AND(p, s, x, q2, e)
nand5 = NAND(and1, and2, and3, c, d)
or5 = OR(nand1, nand2, nand3, nor1, e)
nor5 = NOR(or1, or2, or3, nor2, nor3)
y1 = XOR(and5, nand5)
y2 = XNOR(or5, nor5)
q1 = DFF(y1)
q2 = DFF(nor5)
`)
	for _, k := range []logic.Kind{logic.And, logic.Nand, logic.Or, logic.Nor} {
		for _, arity := range []int{1, 2, 3, 5} {
			name := fmt.Sprintf("%s%d", strings.ToLower(k.String()), arity)
			if id := c.ByName(name); id < 0 || c.KindOf(id) != k || len(c.FaninOf(id)) != arity {
				t.Fatalf("netlist lacks %s: a %v gate with %d fanins", name, k, arity)
			}
		}
	}
	got := checkMatchesPerSiteAllFrames(t, c)
	for id, r := range got {
		if r.Detected == 0 {
			t.Errorf("site %s never detected: the test would not exercise its cone", c.NameOf(netlist.ID(id)))
		}
	}
	later, _, _, err := sweepAll(context.Background(), NewMCSeqBatch(c, MCOptions{Vectors: 256, Seed: 3}, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := c.ByName("a"); later[a].DetectedLater == 0 {
		t.Fatal("a never detected after a clock edge: no carried divergence reaches the gates")
	}
}
