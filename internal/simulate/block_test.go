package simulate

import (
	"context"
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
// at 1, 2 and 4 workers; and two sweeps that each run every other word, as
// one-word blocks, add up to the same counters, per-frame detections
// included, as do two sweeps over spans that start and end inside blocks.
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
				_, cnt, v, err := sweepAll(ctx, mb, workers)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					base, visits = cnt, v
					continue
				}
				if d := countersDiff(base, cnt); d != "" {
					t.Fatalf("vectors %d frames %d: 1 vs %d workers: %s", vectors, frames, workers, d)
				}
				if v != visits {
					t.Fatalf("vectors %d frames %d: Visits %d at 1 worker, %d at %d", vectors, frames, visits, v, workers)
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
			parts := [][]resume.Range{even, odd}
			if vectors == 1000 {
				// 16 words: spans that start and end inside blocks, the
				// words of [1, 3) and [6, 11) in one sweep and the rest in
				// another, each cut into blocks from its gaps' starts.
				done := []resume.Range{{Lo: 1, Hi: 3}, {Lo: 6, Hi: 11}}
				rest := []resume.Range{{Lo: 0, Hi: 1}, {Lo: 3, Hi: 6}, {Lo: 11, Hi: 16}}
				parts = append(parts, resume.Pending(0, 16, MCBlock, rest), resume.Pending(0, 16, MCBlock, done))
			}
			for i := 0; i < len(parts); i += 2 {
				sum := mb.NewCounters()
				for j, spans := range parts[i : i+2] {
					_, cnt, _, err := sweepSpans(ctx, mb, 2+2*j, spans)
					if err != nil {
						t.Fatal(err)
					}
					sum.Add(&cnt)
				}
				if d := countersDiff(base, sum); d != "" || sum.Words != base.Words || sum.GoodSims != base.GoodSims {
					t.Fatalf("vectors %d frames %d: sweeps over %v and %v: %s, words %d/%d, good sims %d/%d", vectors, frames,
						parts[i], parts[i+1], d, sum.Words, base.Words, sum.GoodSims, base.GoodSims)
				}
			}
		}
	}
}

// sweepAll sweeps every word of mb at the given worker count; see
// sweepSpans.
func sweepAll(ctx context.Context, mb *MCBatch, workers int) ([]SeqResult, resume.Counters, int64, error) {
	return sweepSpans(ctx, mb, workers, resume.Pending(0, mb.opt.Words(), MCBlock, nil))
}

// sweepSpans runs mb over spans through Sweep at the given worker count and
// returns the per-node results (meaningful only when the spans cover every
// word), the counter totals and the gates the sweep evaluated.
func sweepSpans(ctx context.Context, mb *MCBatch, workers int, spans []resume.Range) ([]SeqResult, resume.Counters, int64, error) {
	tot := mb.NewCounters()
	var visits int64
	err := mb.Sweep(ctx, workers, spans, 0, func(_, _ int, c *resume.Counters, v int64) error {
		tot.Add(c)
		visits += v
		return nil
	}, nil)
	if err != nil {
		return nil, tot, 0, err
	}
	return mb.Results(tot), tot, visits, nil
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
