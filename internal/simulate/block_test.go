package simulate

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/resume"
)

// buildMC returns the single-cycle estimator at one frame and the
// multi-cycle one at more.
func buildMC(c *netlist.Circuit, opt MCOptions, frames int) *MCBatch {
	if frames == 1 {
		return NewMCBatch(c, opt)
	}
	return NewMCSeqBatch(c, opt, frames)
}

// TestMCBatchBlockBoundaries holds the block sweep to the per-site
// shared-vector estimators across block boundaries: at 64, 192, 320 and
// 1000 vectors (a partial block alone, and full blocks before a partial
// one), single-cycle and at 3 frames, every site's Detected and Later
// equal MonteCarlo's or Sequential's; the counters and Visits are the same
// at 1, 2 and 4 workers; and two resumed sweeps that each run every other
// word, as one-word blocks, add up to the same counters, per-frame
// detections included.
func TestMCBatchBlockBoundaries(t *testing.T) {
	c := gen.SmallRandomSequential(57)
	ctx := context.Background()
	for _, vectors := range []int{64, 192, 320, 1000} {
		for _, frames := range []int{1, 3} {
			opt := MCOptions{Vectors: vectors, Seed: 9}
			mb := buildMC(c, opt, frames)
			var base resume.Counters
			var visits int64
			for i, workers := range []int{1, 2, 4} {
				if _, err := mb.PDetectAll(ctx, workers); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					base, visits = *mb.fin.Clone(), mb.Stats().Visits
					continue
				}
				if d := countersDiff(base, mb.Counters()); d != "" {
					t.Fatalf("vectors %d frames %d: 1 vs %d workers: %s", vectors, frames, workers, d)
				}
				if got := mb.Stats().Visits; got != visits {
					t.Fatalf("vectors %d frames %d: Visits %d at 1 worker, %d at %d", vectors, frames, visits, got, workers)
				}
			}

			shared := opt
			shared.SharedVectors = true
			mc := NewMonteCarlo(c, shared)
			seq := NewSequential(c, SeqOptions{Frames: frames, Trials: vectors, Seed: opt.Seed, SharedVectors: true})
			for id := range c.N() {
				var det, later int64
				if frames == 1 {
					det = int64(mc.EPP(netlist.ID(id)).Detected)
				} else {
					r := seq.PDetect(netlist.ID(id))
					det, later = int64(r.Detected), int64(r.DetectedLater)
					if base.Later[id] != later {
						t.Fatalf("vectors %d frames %d site %d: later %d, Sequential %d", vectors, frames, id, base.Later[id], later)
					}
				}
				if base.Detected[id] != det {
					t.Fatalf("vectors %d frames %d site %d: detected %d, per-site %d", vectors, frames, id, base.Detected[id], det)
				}
			}

			var even, odd []resume.Range
			for w := range opt.Words() {
				if w%2 == 0 {
					even = append(even, resume.Range{Lo: w, Hi: w + 1})
				} else {
					odd = append(odd, resume.Range{Lo: w, Hi: w + 1})
				}
			}
			sum := mb.newCounters()
			for _, done := range [][]resume.Range{even, odd} {
				mb.opt.Resume = &Resume{Done: done}
				if err := mb.sweep(ctx, 2); err != nil {
					t.Fatal(err)
				}
				sum.Add(&mb.fin)
			}
			mb.opt.Resume = nil
			if d := countersDiff(base, sum); d != "" || sum.Words != base.Words || sum.GoodSims != base.GoodSims {
				t.Fatalf("vectors %d frames %d: one-word blocks: %s, words %d/%d, good sims %d/%d", vectors, frames, d,
					sum.Words, base.Words, sum.GoodSims, base.GoodSims)
			}
		}
	}
}

// TestMCBatchBudgetInsideBlock: a MaxNewWords budget that ends inside a
// block runs and commits exactly that many words — the block is cut short
// — and resuming from the committed words and snapshot finishes with the
// uninterrupted counters, as does a resume whose done ranges start and end
// inside blocks.
func TestMCBatchBudgetInsideBlock(t *testing.T) {
	c := gen.SmallRandomSequential(58)
	ctx := context.Background()
	for _, frames := range []int{1, 3} {
		opt := MCOptions{Vectors: 1000, Seed: 4} // 16 words
		mb := buildMC(c, opt, frames)
		if _, err := mb.PDetectAll(ctx, 1); err != nil {
			t.Fatal(err)
		}
		base := *mb.fin.Clone()
		for _, workers := range []int{1, 2, 4} {
			for _, budget := range []int{1, 3, 5, 6, 15} {
				var committed []resume.Range
				var snap resume.Counters
				mb.opt.MaxNewWords = budget
				mb.opt.OnCommit = func(lo, hi int, _ func() resume.Counters) error {
					committed = append(committed, resume.Range{Lo: lo, Hi: hi})
					return nil
				}
				mb.opt.OnAbort = func(s resume.Counters) { snap = s }
				if err := mb.sweep(ctx, workers); !errors.Is(err, resume.ErrBudget) {
					t.Fatalf("frames %d budget %d: err = %v, want the budget stop", frames, budget, err)
				}
				ran := 0
				for _, r := range committed {
					ran += r.Hi - r.Lo
				}
				if ran != budget || snap.Words != int64(budget) {
					t.Fatalf("frames %d budget %d workers %d: committed %v (%d words), snapshot of %d words",
						frames, budget, workers, committed, ran, snap.Words)
				}
				mb.opt.MaxNewWords, mb.opt.OnCommit, mb.opt.OnAbort = 0, nil, nil
				mb.opt.Resume = &Resume{Done: []resume.Range{{Lo: 0, Hi: budget}}, Counters: &snap}
				if err := mb.sweep(ctx, workers); err != nil {
					t.Fatal(err)
				}
				mb.opt.Resume = nil
				if d := countersDiff(base, mb.fin); d != "" || mb.fin.Words != base.Words || mb.fin.GoodSims != base.GoodSims {
					t.Fatalf("frames %d budget %d workers %d: resumed sweep: %s", frames, budget, workers, d)
				}
			}
		}

		// Words [1,3) and [6,11) as a prior run's done set: first run just
		// them (their complement marked done), then the rest from their
		// counters.
		done := []resume.Range{{Lo: 1, Hi: 3}, {Lo: 6, Hi: 11}}
		mb.opt.Resume = &Resume{Done: []resume.Range{{Lo: 0, Hi: 1}, {Lo: 3, Hi: 6}, {Lo: 11, Hi: 16}}}
		if err := mb.sweep(ctx, 2); err != nil {
			t.Fatal(err)
		}
		part := *mb.fin.Clone()
		mb.opt.Resume = &Resume{Done: done, Counters: &part}
		if err := mb.sweep(ctx, 4); err != nil {
			t.Fatal(err)
		}
		mb.opt.Resume = nil
		if d := countersDiff(base, mb.fin); d != "" || mb.fin.Words != base.Words {
			t.Fatalf("frames %d: resume of unaligned done ranges %v: %s", frames, done, d)
		}
	}
}

// TestNewMCSeqBatchLinearBuild is the construction gate: building the
// multi-cycle estimator at 3 frames costs O(N) bytes and time. Grown
// eightfold, a circuit may take at most three times eight the build time
// (best of several builds each); a per-site cone walk, quadratic in N,
// takes about 64 times. The retained bytes stay within 48 per node.
func TestNewMCSeqBatchLinearBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 16k-gate circuit")
	}
	opt := MCOptions{Vectors: 64, Seed: 1}
	var best [2]time.Duration
	var nodes [2]int
	for i, gates := range []int{2000, 16000} {
		c := gen.MustRandom(gen.Params{Seed: 1, Gates: gates, PIs: gates / 50, POs: gates / 50, FFs: gates / 15})
		c.ObsSignatures() // computed once per circuit and cached on it: not the estimator's
		nodes[i] = c.N()
		before := heapAlloc()
		mb := NewMCSeqBatch(c, opt, 3)
		retained := heapAlloc() - before
		runtime.KeepAlive(mb)
		if retained > int64(48*c.N()) {
			t.Errorf("%d nodes: the build retains %d bytes, want <= %d", c.N(), retained, 48*c.N())
		}
		best[i] = time.Hour
		for range 9 {
			start := time.Now()
			NewMCSeqBatch(c, opt, 3)
			best[i] = min(best[i], time.Since(start))
		}
	}
	ratio := float64(best[1]) / float64(best[0])
	grow := float64(nodes[1]) / float64(nodes[0])
	t.Logf("build: %v at %d nodes, %v at %d nodes (x%.1f for x%.1f nodes)", best[0], nodes[0], best[1], nodes[1], ratio, grow)
	if ratio > 3*grow {
		t.Errorf("build time grew x%.1f for x%.1f nodes, want at most x%.1f", ratio, grow, 3*grow)
	}
}
