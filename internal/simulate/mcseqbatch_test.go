package simulate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/resume"
)

// TestMCSeqBatchMatchesSequentialShared is the kernel's conformance suite:
// for every site of random sequential circuits and several frame budgets,
// the batched multi-cycle estimate must equal a per-site Sequential run in
// the shared-vector regime BIT-EXACTLY — same detection counts, same
// trajectory, same standard error. Faulty evaluation is two-machine
// simulation arithmetic over the same good trajectory, so any divergence is
// a propagation or state-carry bug, not noise.
func TestMCSeqBatchMatchesSequentialShared(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		c := gen.SmallRandomSequential(seed + 50)
		for _, frames := range []int{1, 2, 4} {
			opt := MCOptions{Vectors: 256, Seed: seed + 1}
			mb := NewMCSeqBatch(c, opt, frames)
			got, _, _, err := sweepAll(context.Background(), mb, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != c.N() {
				t.Fatalf("seed %d: %d results for %d nodes", seed, len(got), c.N())
			}
			ps := NewSequential(c, SeqOptions{
				Frames: frames, Trials: 256, Seed: seed + 1, SharedVectors: true,
			})
			for id := 0; id < c.N(); id++ {
				want := ps.PDetect(netlist.ID(id))
				g := got[id]
				if g != want {
					t.Fatalf("seed %d frames %d site %d: batched %+v, per-site shared %+v",
						seed, frames, id, g, want)
				}
				// The weighted estimate is pure integer-counter arithmetic,
				// so it inherits the bit-exact agreement at every weight.
				for _, w := range []float64{0, 0.18, 1} {
					if g.PDetectWeighted(w) != want.PDetectWeighted(w) {
						t.Fatalf("seed %d frames %d site %d weight %v: batched %v != per-site %v",
							seed, frames, id, w, g.PDetectWeighted(w), want.PDetectWeighted(w))
					}
				}
			}
		}
	}
}

// TestMCSeqBatchStatisticalVsSequential: against the historical per-site
// regime (independent streams) the batched kernel must agree within the
// binomial noise of both estimators — the statistical half of the
// conformance story, on the combinational testdata circuits (where every
// frame is an independent trial) and a flip-flop-bearing random circuit.
func TestMCSeqBatchStatisticalVsSequential(t *testing.T) {
	circuits := map[string]*netlist.Circuit{
		"small-seq": gen.SmallRandomSequential(77),
	}
	for _, file := range []string{"c17.bench", "majority.bench"} {
		c, err := bench.ParseFile("../../testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		circuits[file] = c
	}
	for name, c := range circuits {
		mb := NewMCSeqBatch(c, MCOptions{Vectors: 1 << 13, Seed: 5}, 3)
		got, _, _, err := sweepAll(context.Background(), mb, 2)
		if err != nil {
			t.Fatal(err)
		}
		sim := NewSequential(c, SeqOptions{Frames: 3, Trials: 1 << 13, Seed: 99})
		for id := 0; id < c.N(); id++ {
			ref := sim.PDetect(netlist.ID(id))
			tol := 5*(got[id].StdErr+ref.StdErr) + 1e-9
			if d := math.Abs(got[id].PDetect - ref.PDetect); d > tol {
				t.Errorf("%s site %d: batched %v, per-site %v (|diff| %v > %v)",
					name, id, got[id].PDetect, ref.PDetect, d, tol)
			}
		}
	}
}

// TestMCSeqBatchShiftRegister: deterministic pipeline — the flip delivered at
// frame 0 reaches the PO exactly at frame 4, with probability 1, through
// three flip-flop stages.
func TestMCSeqBatchShiftRegister(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(z)
d0 = BUFF(a)
q0 = DFF(d0)
q1 = DFF(q0)
q2 = DFF(q1)
z  = BUFF(q2)
`)
	site := c.ByName("d0")
	for frames, want := range map[int]float64{1: 0, 2: 0, 3: 0, 4: 1, 5: 1} {
		mb := NewMCSeqBatch(c, MCOptions{Vectors: 256, Seed: 1}, frames)
		got, _, _, err := sweepAll(context.Background(), mb, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[site].PDetect != want {
			t.Errorf("frames=%d: PDetect = %v, want %v", frames, got[site].PDetect, want)
		}
	}
}

// TestMCSeqBatchMonotoneFrames: under the shared regime every word's stream
// is re-seeded by (Seed, w) and the frame-k draws are a prefix of the
// frame-(k+1) draws, so the per-trial detection indicator — and hence every
// site's estimate — is exactly monotone in the frame budget, at any word
// count.
func TestMCSeqBatchMonotoneFrames(t *testing.T) {
	c := gen.SmallRandomSequential(31)
	prev := make([]float64, c.N())
	for i := range prev {
		prev[i] = -1
	}
	for frames := 1; frames <= 4; frames++ {
		mb := NewMCSeqBatch(c, MCOptions{Vectors: 512, Seed: 7}, frames)
		got, _, _, err := sweepAll(context.Background(), mb, 2)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < c.N(); id++ {
			if got[id].PDetect < prev[id] {
				t.Fatalf("site %d: PDetect dropped from %v to %v at frames=%d",
					id, prev[id], got[id].PDetect, frames)
			}
			prev[id] = got[id].PDetect
		}
	}
}

// TestMCSeqBatchWorkerInvariance: detection counts are summed integers, so
// the result is identical at any worker count.
func TestMCSeqBatchWorkerInvariance(t *testing.T) {
	c := gen.SmallRandomSequential(61)
	mb := NewMCSeqBatch(c, MCOptions{Vectors: 512, Seed: 7}, 3)
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

// TestMCSeqBatchGoodSimInvariant: exactly one good simulation per (64-vector
// word, frame), regardless of site count — the defining counter of the
// frame-unrolled kernel. The per-site Sequential estimator pays
// words × frames × sites.
func TestMCSeqBatchGoodSimInvariant(t *testing.T) {
	c := gen.SmallRandomSequential(42)
	vectors, frames := 1000, 3 // rounds up to 16 words
	mb := NewMCSeqBatch(c, MCOptions{Vectors: vectors, Seed: 1}, frames)
	res, tot, visits, err := sweepAll(context.Background(), mb, 3)
	if err != nil {
		t.Fatal(err)
	}
	words := int64((vectors + 63) / 64)
	if tot.Words != words || tot.GoodSims != words*int64(frames) {
		t.Fatalf("Words = %d, GoodSims = %d, want %d and %d (one per word per frame)",
			tot.Words, tot.GoodSims, words, words*int64(frames))
	}
	if len(res) != c.N() {
		t.Fatalf("%d results, want %d", len(res), c.N())
	}
	if perSite := words * int64(frames) * int64(c.N()); perSite < 5*tot.GoodSims {
		t.Fatalf("good-sim saving %d/%d < 5x", perSite, tot.GoodSims)
	}
	if visits <= 0 {
		t.Fatalf("visits = %d, want a positive count", visits)
	}
}

// TestMCSeqBatchUnobservableSites: sites with no reachable observation point
// are skipped by the sweep and report P = 0 with full trial accounting in
// every frame budget.
func TestMCSeqBatchUnobservableSites(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
dead = AND(a, b)
y = OR(a, b)
`)
	mb := NewMCSeqBatch(c, MCOptions{Vectors: 128, Seed: 3}, 2)
	out, _, _, err := sweepAll(context.Background(), mb, 1)
	if err != nil {
		t.Fatal(err)
	}
	dead := c.ByName("dead")
	if out[dead].PDetect != 0 {
		t.Fatalf("dead node: %+v, want P = 0", out[dead])
	}
	if out[dead].Trials != 128 || out[dead].Frames != 2 {
		t.Fatalf("dead node accounting = %+v, want 128 trials over 2 frames", out[dead])
	}
	if got := c.N() - len(mb.sites); got != 1 {
		t.Fatalf("%d unobservable sites, want 1 (just the dead gate)", got)
	}
}

// TestMCSeqBatchCancellation: a pre-cancelled context aborts before (or
// promptly after) the first word and surfaces ctx.Err() — cancellation is
// word-granular, never waiting for the sweep to drain.
func TestMCSeqBatchCancellation(t *testing.T) {
	c := gen.SmallRandomSequential(13)
	mb := NewMCSeqBatch(c, MCOptions{Vectors: 1 << 14, Seed: 5}, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := sweepAll(ctx, mb, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMCSeqBatchOnWord: Sweep's progress callback fires once per
// completed block of up to four words, with strictly increasing done counts
// ending at the total — what the engine layer's streaming progress builds
// on. 520 vectors are 9 words: two full blocks and a one-word block, which
// three workers may finish in any order. Both modes share the contract.
func TestMCSeqBatchOnWord(t *testing.T) {
	c := gen.SmallRandomSequential(21)
	const words = (520 + 63) / 64
	opt := MCOptions{Vectors: 520, Seed: 2}
	for _, mb := range []*MCBatch{NewMCSeqBatch(c, opt, 2), NewMCBatch(c, opt)} {
		kernel := fmt.Sprintf("%d-frame", mb.frames)
		// The callback runs on sweep worker goroutines under the driver's
		// mutex, so record the (done, total) pairs and assert only after the
		// sweep returns — a t.Fatalf from inside would strand the mutex.
		var seen [][2]int
		err := mb.Sweep(context.Background(), 3, resume.Pending(0, words, MCBlock, nil), 0,
			func(int, int, *resume.Counters, int64) error { return nil },
			func(done, total int) { seen = append(seen, [2]int{done, total}) })
		if err != nil {
			t.Fatal(err)
		}
		var steps []int
		prev := 0
		for _, sn := range seen {
			if sn[1] != words {
				t.Fatalf("%s: progress calls %v, want total %d in each", kernel, seen, words)
			}
			steps = append(steps, sn[0]-prev)
			prev = sn[0]
		}
		slices.Sort(steps)
		if prev != words || !slices.Equal(steps, []int{1, 4, 4}) {
			t.Fatalf("%s: progress calls %v, want done counts rising by one block each (4, 4 and 1 words) to %d", kernel, seen, words)
		}
	}
}

// TestMCSeqBatchSeedGolden pins the shared-regime multi-cycle stream for a
// fixed seed: the per-site Sequential value in the shared regime and the
// batched kernel must keep reproducing it verbatim. If the value changes, a
// seeding or state-carry change has silently broken reproducibility.
func TestMCSeqBatchSeedGolden(t *testing.T) {
	c := gen.SmallRandomSequential(1)
	site := netlist.ID(2) // mid-probability site: 0.1 < P < 0.9
	shared := NewSequential(c, SeqOptions{Frames: 3, Trials: 1024, Seed: 1, SharedVectors: true}).PDetect(site)
	t.Logf("shared: %+v", shared)
	const wantDetected = 130
	if got := int(shared.PDetect * float64(shared.Trials)); got != wantDetected {
		t.Errorf("shared regime: detected = %d/%d, want %d (multi-cycle word stream changed!)",
			got, shared.Trials, wantDetected)
	}
	batched, _, _, err := sweepAll(context.Background(), NewMCSeqBatch(c, MCOptions{Vectors: 1024, Seed: 1}, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if batched[site].PDetect != shared.PDetect {
		t.Errorf("MCSeqBatch PDetect = %v, want shared-regime %v", batched[site].PDetect, shared.PDetect)
	}
}

// TestMCSeqBatchFrameCounters: the per-frame detection counters are
// consistent with the joint counts — the union over all frames is Detected,
// the union over frames >= 1 is DetectedLater, each frame's count is
// bounded by the union, and frame 0's count can never exceed Detected −
// DetectedLater + DetectedLater (trivially) while a strike-only trial shows
// up in frame 0 alone.
func TestMCSeqBatchFrameCounters(t *testing.T) {
	c := gen.SmallRandomSequential(23)
	const frames = 4
	mb := NewMCSeqBatch(c, MCOptions{Vectors: 512, Seed: 3}, frames)
	got, tot, _, err := sweepAll(context.Background(), mb, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := c.N()
	if len(tot.Frames) != frames*n {
		t.Fatalf("%d per-frame counters for %d frames of %d nodes", len(tot.Frames), frames, n)
	}
	for id := 0; id < c.N(); id++ {
		r := got[id]
		if r.Detected < r.DetectedLater || r.DetectedLater < 0 {
			t.Fatalf("site %d: Detected %d < DetectedLater %d", id, r.Detected, r.DetectedLater)
		}
		if want := float64(r.Detected) / float64(r.Trials); r.PDetect != want {
			t.Fatalf("site %d: PDetect %v != Detected/Trials %v", id, r.PDetect, want)
		}
		var sumLater, maxAny int64
		for f := 0; f < frames; f++ {
			fd := tot.Frames[f*n+id]
			if fd < 0 || fd > int64(r.Detected) {
				t.Fatalf("site %d frame %d: count %d outside [0, Detected=%d]", id, f, fd, r.Detected)
			}
			if fd > maxAny {
				maxAny = fd
			}
			if f >= 1 {
				sumLater += fd
			}
		}
		// Unions bound their members and are bounded by the sums.
		if int64(r.DetectedLater) > sumLater {
			t.Fatalf("site %d: DetectedLater %d exceeds per-frame sum %d", id, r.DetectedLater, sumLater)
		}
		if maxAny > int64(r.Detected) {
			t.Fatalf("site %d: a single frame's count %d exceeds the union %d", id, maxAny, r.Detected)
		}
		// Frame 0 alone accounts for every strike-only trial.
		if f0 := tot.Frames[id]; int64(r.Detected-r.DetectedLater) > f0 {
			t.Fatalf("site %d: strike-only %d exceeds frame-0 count %d", id, r.Detected-r.DetectedLater, f0)
		}
	}
}

// TestMCSeqBatchFrameCountersWorkerInvariance: the per-frame counters are
// folded integers, identical at any worker count.
func TestMCSeqBatchFrameCountersWorkerInvariance(t *testing.T) {
	c := gen.SmallRandomSequential(29)
	const frames = 3
	mb := NewMCSeqBatch(c, MCOptions{Vectors: 512, Seed: 11}, frames)
	_, base, _, err := sweepAll(context.Background(), mb, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := c.N()
	for _, workers := range []int{2, 0} {
		_, tot, _, err := sweepAll(context.Background(), mb, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range tot.Frames {
			if got != base.Frames[i] {
				t.Fatalf("workers=%d frame %d site %d: %d != %d", workers, i/n, i%n, got, base.Frames[i])
			}
		}
	}
}

// TestMCSeqBatchPerFrameExactMasks: at each clock edge the sweep carries
// exactly the flip-flops whose D input diverged in the frame just swept. On
// a 3-stage shift register d0's strike is carried into q0, then q1, then
// q2 — one stage per edge, never back into a stage it has left — and on
// random sequential circuits every site's carried set at every edge equals
// that of a two-machine simulation of the whole circuit.
func TestMCSeqBatchPerFrameExactMasks(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(z)
d0 = BUFF(a)
q0 = DFF(d0)
q1 = DFF(q0)
q2 = DFF(q1)
z  = BUFF(q2)
`)
	const frames = 4
	mb := NewMCSeqBatch(c, MCOptions{Vectors: 128, Seed: 1}, frames)
	wk := mb.newWorker()
	wk.goodSim(0, 2)
	got := carriedSets(wk, c.ByName("d0"), 2)
	want := [][]string{{"q0"}, {"q1"}, {"q2"}}
	for k, names := range want {
		var ids []string
		for _, id := range got[k] {
			ids = append(ids, c.NameOf(id))
		}
		if !slices.Equal(ids, names) {
			t.Errorf("edge %d: d0's strike is carried into %v, want %v", k+1, ids, names)
		}
	}

	for seed := uint64(0); seed < 4; seed++ {
		c := gen.SmallRandomSequential(seed + 50)
		mb := NewMCSeqBatch(c, MCOptions{Vectors: 192, Seed: seed}, frames)
		wk := mb.newWorker()
		wk.goodSim(0, 3)
		for _, site := range mb.sites {
			got, want := carriedSets(wk, site, 3), bruteCarried(wk, site, 3)
			for k := range want {
				if !slices.Equal(got[k], want[k]) {
					t.Fatalf("seed %d site %s edge %d: carried %v, two-machine simulation %v",
						seed, c.NameOf(site), k+1, got[k], want[k])
				}
			}
		}
	}
}

// carriedSets runs site's frames on wk's block of nw words and returns, per
// clock edge, the flip-flops the sweep carries across it, in ascending ID.
func carriedSets(wk *mcWorker, site netlist.ID, nw int) [][]netlist.ID {
	strike := wk.good[0][site]
	for i := range nw {
		strike[i] = ^strike[i]
	}
	wk.inj = append(wk.inj[:0], mcInject{node: site, v: strike})
	var sets [][]netlist.ID
	for f := 0; f+1 < wk.m.frames; f++ {
		wk.frame(f)
		var ids []netlist.ID
		for _, in := range wk.inj {
			ids = append(ids, in.node)
		}
		slices.Sort(ids)
		sets = append(sets, ids)
	}
	return sets
}

// bruteCarried is carriedSets by a two-machine simulation: the faulty
// machine is re-simulated over the whole circuit every frame from wk's good
// sources, with the site complemented in frame 0 and the faulty D inputs
// latched at each edge, one word at a time through logic.EvalWord; a
// flip-flop is carried where its faulty D input differs from the good one.
func bruteCarried(wk *mcWorker, site netlist.ID, nw int) [][]netlist.ID {
	c := wk.m.c
	faulty := make([]block, c.N())
	var sets [][]netlist.ID
	for f := range wk.m.frames {
		good := wk.good[f]
		prev := slices.Clone(faulty)
		for _, id := range c.Topo() {
			switch k := c.KindOf(id); {
			case f == 0 && id == site:
				faulty[id] = good[id]
				for i := range nw {
					faulty[id][i] = ^faulty[id][i]
				}
			case k == logic.DFF && f > 0:
				faulty[id] = prev[c.FaninOf(id)[0]]
			case k.IsGate():
				for i := range MCBlock {
					var ins []uint64
					for _, fi := range c.FaninOf(id) {
						ins = append(ins, faulty[fi][i])
					}
					faulty[id][i] = logic.EvalWord(k, ins)
				}
			default:
				faulty[id] = good[id]
			}
		}
		if f+1 < wk.m.frames {
			var ids []netlist.ID
			for _, ff := range c.FFs {
				if d := c.FaninOf(ff)[0]; faulty[d] != good[d] {
					ids = append(ids, ff)
				}
			}
			slices.Sort(ids)
			sets = append(sets, ids)
		}
	}
	return sets
}

// TestSeqResultPDetectWeighted pins the weighted-composition algebra on the
// integer counters.
func TestSeqResultPDetectWeighted(t *testing.T) {
	r := SeqResult{Trials: 200, Detected: 80, DetectedLater: 30}
	if got := r.PDetectWeighted(1); got != float64(80)/200 {
		t.Errorf("weight 1: %v, want Detected/Trials", got)
	}
	if got := r.PDetectWeighted(0); got != float64(30)/200 {
		t.Errorf("weight 0: %v, want DetectedLater/Trials", got)
	}
	if got, want := r.PDetectWeighted(0.5), (30+0.5*50)/200; got != want {
		t.Errorf("weight 0.5: %v, want %v", got, want)
	}
	if got := (SeqResult{}).PDetectWeighted(0.5); got != 0 {
		t.Errorf("zero result: %v, want 0", got)
	}
}
