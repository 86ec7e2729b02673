package simulate

import (
	"context"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/resume"
)

// FuzzMCBatch differentially fuzzes the batched Monte Carlo kernel against
// the per-site shared-vector estimators. The circuit is a small (5–80
// gates) or large (200–600 gates) random one (gen.FuzzParams), optionally
// with one edge-case gadget grafted on (gen.FuzzCircuit), swept for a
// fuzzed 1–8 words. In single-cycle mode each checked site's MCBatch
// estimate must equal MonteCarlo's with SharedVectors set, and at frame
// budgets 1–4 NewMCSeqBatch's must equal Sequential's, field for field;
// the checked sites are every site of a small circuit and a sample of at
// most 32, every flip-flop among them, of a large one (refSites). Within
// each mode the counters of every site — Detected, DetectedLater and the
// per-frame detections — must be identical at 1 and 3 workers and after a
// resume at a fuzzed word boundary; a frame's detections must not depend on
// the budget that contains it.
func FuzzMCBatch(f *testing.F) {
	// One seed per gadget: XOR(s, s), constant masking, the AND/OR family
	// at fanin 1, 2, 3 and 5, a carried flip-flop that always latches its
	// good value, and a flip-flop whose D input only it reaches; then plain
	// circuits with and without inverters and XORs; then large circuits,
	// plain and with the last two gadgets.
	for g := uint8(1); g < 9; g++ {
		f.Add(uint64(g)*0x9e3779b97f4a7c15+1, 20+10*g, g, g, uint8(0x27+0x31*g), g, g, g)
	}
	f.Add(uint64(1), uint8(30), uint8(1), uint8(3), uint8(0x27), uint8(0), uint8(3), uint8(1))
	f.Add(uint64(5), uint8(60), uint8(3), uint8(6), uint8(0xf3), uint8(0), uint8(2), uint8(2))
	f.Add(uint64(7), uint8(0xc0), uint8(1), uint8(4), uint8(0x2d), uint8(0), uint8(4), uint8(3))
	for i := uint64(0); i < 3; i++ {
		f.Add(i*0x9e3779b97f4a7c15+11, uint8(0xc8+20*i), uint8(i), uint8(2+i), uint8(0x3c-4*i), uint8(8), uint8(5+i), uint8(2+3*i))
	}
	f.Add(uint64(0x5eed), uint8(0xd0), uint8(2), uint8(5), uint8(0x1f), uint8(7), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, size, fanin, ffs, mix, gadget, words, cut uint8) {
		c, err := gen.FuzzCircuit(gen.FuzzParams(seed, size, fanin, ffs, mix), gadget, seed)
		if err != nil {
			t.Skip(err)
		}
		sites := refSites(c, size >= 0xc0)
		opt := MCOptions{Vectors: 64 * (1 + int(words)%8), Seed: seed}
		shared := opt
		shared.SharedVectors = true

		single := fuzzCounters(t, NewMCBatch(c, opt), int(cut))
		ps := NewMonteCarlo(c, shared)
		for _, id := range sites {
			want := ps.EPP(id)
			if got := single.Detected[id]; got != int64(want.Detected) {
				t.Fatalf("single-cycle site %d: MCBatch detected %d, MonteCarlo %d", id, got, want.Detected)
			}
		}

		var prev []int64 // per-frame detections at the previous budget, frame-major
		for frames := 1; frames <= 4; frames++ {
			got := fuzzCounters(t, NewMCSeqBatch(c, opt, frames), int(cut))
			seq := NewSequential(c, SeqOptions{Frames: frames, Trials: opt.Vectors, Seed: opt.Seed, SharedVectors: true})
			for _, id := range sites {
				want := seq.PDetect(id)
				later := int64(0)
				if got.Later != nil {
					later = got.Later[id]
				}
				if got.Detected[id] != int64(want.Detected) || later != int64(want.DetectedLater) {
					t.Fatalf("frames %d site %d: MCBatch detected %d (later %d), Sequential %d (later %d)",
						frames, id, got.Detected[id], later, want.Detected, want.DetectedLater)
				}
			}
			// The frame-k draws are a prefix of the frame-(k+1) draws, so
			// the frames both budgets sweep count the same detections.
			per := got.Frames
			if frames == 1 {
				per = got.Detected
			}
			if !slices.Equal(per[:len(prev)], prev) {
				t.Fatalf("frames %d: per-frame detections of the first %d frames differ from the %d-frame budget's",
					frames, frames-1, frames-1)
			}
			prev = per
		}
	})
}

// fuzzCounters sweeps mb at 1 and 3 workers and, resumed at word cut%words,
// at 3 workers, requires the three runs' counters to be identical and
// returns them.
func fuzzCounters(t *testing.T, mb *MCBatch, cut int) resume.Counters {
	t.Helper()
	ctx := context.Background()
	_, base, _, err := sweepAll(ctx, mb, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, cnt, _, err := sweepAll(ctx, mb, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d := countersDiff(base, cnt); d != "" {
		t.Fatalf("1 vs 3 workers: %s", d)
	}

	words := mb.opt.Words()
	cut %= words
	_, resumed, _, err := sweepSpans(ctx, mb, 3, resume.Pending(0, cut, MCBlock, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _, err := sweepSpans(ctx, mb, 3, resume.Pending(cut, words, MCBlock, nil))
	if err != nil {
		t.Fatal(err)
	}
	resumed.Add(&rest)
	if d := countersDiff(base, resumed); d != "" {
		t.Fatalf("resumed after %d of %d words: %s", cut, words, d)
	}
	return base
}

// refSites returns the sites checked against the per-site references:
// every node of a small circuit. On a large one, whose per-site references
// would cost seconds an input, it returns at most 32: every flip-flop, and
// evenly spaced among the nodes with a path into a flip-flop's D input
// (the sites whose divergence the sweep carries across clock edges) and
// among all nodes, half of the rest each.
func refSites(c *netlist.Circuit, large bool) []netlist.ID {
	n := c.N()
	pick := make([]bool, n)
	if large {
		feeds := make([]bool, n)
		foIdx, foArr := c.FanoutCSR()
		topo := c.Topo()
		for i := len(topo) - 1; i >= 0; i-- {
			id := topo[i]
			for _, o := range foArr[foIdx[id]:foIdx[id+1]] {
				feeds[id] = feeds[id] || feeds[o] || c.Nodes[o].Kind == logic.DFF
			}
		}
		var feeders []netlist.ID
		for id, f := range feeds {
			if f {
				feeders = append(feeders, netlist.ID(id))
			}
		}
		for _, ff := range c.FFs {
			pick[ff] = true
		}
		k := (32 - len(c.FFs)) / 2
		for i := range k {
			pick[i*n/k] = true
			if len(feeders) > 0 {
				pick[feeders[i*len(feeders)/k]] = true
			}
		}
	}
	var ids []netlist.ID
	for id, p := range pick {
		if p || !large {
			ids = append(ids, netlist.ID(id))
		}
	}
	return ids
}

// countersDiff describes the first difference between two counter sets, or
// returns "" when they are identical.
func countersDiff(a, b resume.Counters) string {
	switch {
	case !slices.Equal(a.Detected, b.Detected):
		return "Detected differs"
	case !slices.Equal(a.Later, b.Later):
		return "Later differs"
	case !slices.Equal(a.Frames, b.Frames):
		return "per-frame detections differ"
	}
	return ""
}
