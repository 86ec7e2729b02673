// Per-site two-machine multi-cycle fault-injection simulator — the ground
// truth multi-cycle MCBatch is conformance-tested against.

package simulate

import (
	"math"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// SeqOptions configure the multi-cycle fault-injection estimator.
type SeqOptions struct {
	// Frames is the number of clock cycles simulated per trial, including
	// the strike cycle. Must be >= 1.
	Frames int
	// Trials is the number of random trials (rounded up to a multiple of
	// 64). Default 10000.
	Trials int
	// Seed fixes the random streams.
	Seed uint64
	// SourceProb optionally biases primary inputs and the initial flip-flop
	// state (indexed by node ID); nil means 0.5.
	SourceProb []float64
	// SharedVectors selects the shared-stream regime of the multi-cycle
	// seeding contract: the trials of 64-trial word w are drawn from a
	// stream seeded by (Seed, w) via wordSeed, first the initial flip-flop
	// state words (in Circuit.FFs order), then each frame's primary-input
	// words (in Circuit.PIs order) — so every error site sees the same
	// initial state and input sequence. This is the regime multi-cycle
	// MCBatch is built on (sharing the good trajectory across sites
	// requires the sites to share the word's vectors), and setting it on a
	// per-site Sequential reproduces multi-cycle MCBatch's per-site results
	// bit-exactly (see TestMCSeqBatchMatchesSequentialShared).
	//
	// Default false: each site draws one continuous stream seeded by
	// (Seed, site), the historical regime.
	SharedVectors bool
}

func (o *SeqOptions) setDefaults() {
	if o.Trials <= 0 {
		o.Trials = 10000
	}
	if o.Frames < 1 {
		o.Frames = 1
	}
}

// SeqResult is the multi-cycle Monte Carlo estimate for one error site.
//
// Detected and DetectedLater expose the integer trial counts behind PDetect
// so downstream compositions stay exact: Detected/Trials == PDetect, and the
// difference Detected − DetectedLater counts the trials observed only as the
// strike-cycle transient — the contribution the latch-window weighting
// derates (a frame-0 detection is a narrow pulse racing the capture window,
// while a detection in any later frame is a full-cycle value re-launched
// from a flip-flop, captured with certainty; see latch.Model.FrameWeight).
// The weighted detection probability is therefore
//
//	(DetectedLater + w0·(Detected − DetectedLater)) / Trials
//
// with w0 the strike-frame capture weight, computable from the integer
// counters alone — no per-trial floats, so worker invariance and the
// bit-exact Sequential/MCBatch agreement extend to the weighted estimate.
type SeqResult struct {
	Site          netlist.ID
	Frames        int
	PDetect       float64 // probability a primary output differed in any frame
	StdErr        float64
	Trials        int
	Detected      int // trials in which a primary output differed in any frame
	DetectedLater int // trials in which a primary output differed in a frame >= 1
}

// PDetectWeighted returns the latch-window-weighted detection probability:
// later-frame detections count in full (a re-launched flip-flop value is a
// stable full-cycle level, captured with certainty — latch.Model.FrameWeight
// is identically 1 for frames >= 1), while trials observed only during the
// strike cycle are derated by strikeWeight, the transient's capture-window
// probability (latch.Model.FrameWeight(0)). Computed from the integer trial
// counters, so the weighted estimate inherits every exactness property of
// the counts: PDetectWeighted(1) == PDetect bit-exactly, and two estimators
// with equal counters agree at every weight.
func (r SeqResult) PDetectWeighted(strikeWeight float64) float64 {
	if r.Trials == 0 {
		return 0
	}
	later := float64(r.DetectedLater)
	strikeOnly := float64(r.Detected - r.DetectedLater)
	// float64(...) rounds the product: no fused multiply-add.
	return (later + float64(strikeWeight*strikeOnly)) / float64(r.Trials)
}

// Sequential estimates the probability that an SEU at a node is observed at
// a primary output within a bounded number of clock cycles, by lock-step
// good/faulty two-machine simulation: both machines see identical primary
// input streams and identical initial flip-flop state; the fault machine has
// the error site complemented during the strike cycle; thereafter the
// corrupted flip-flop state carries the error. 64 trials run per word.
//
// This is the ground-truth instrument for the multi-cycle analytical
// extension in package seq.
type Sequential struct {
	c   *netlist.Circuit
	opt SeqOptions

	good   []uint64
	faulty []uint64
	ins    []uint64
	nextG  []uint64 // snapshot of D values for the atomic clock edge
	nextF  []uint64
}

// NewSequential returns a multi-cycle estimator for circuit c.
func NewSequential(c *netlist.Circuit, opt SeqOptions) *Sequential {
	opt.setDefaults()
	return &Sequential{
		c:      c,
		opt:    opt,
		good:   make([]uint64, c.N()),
		faulty: make([]uint64, c.N()),
		ins:    make([]uint64, 0, 8),
		nextG:  make([]uint64, len(c.FFs)),
		nextF:  make([]uint64, len(c.FFs)),
	}
}

// PDetect runs the estimation for one error site.
func (s *Sequential) PDetect(site netlist.ID) SeqResult {
	c := s.c
	// Only the vector source differs between the regimes: per-site keeps one
	// decorrelated stream seeded by (Seed, site); shared re-seeds per word by
	// (Seed, w) — identical draws for every site, the MCBatch contract.
	var src *VectorSource
	if !s.opt.SharedVectors {
		src = NewVectorSource(s.opt.Seed^(uint64(site)*0xa0761d6478bd642f+13), s.opt.SourceProb)
	}
	words := (s.opt.Trials + 63) / 64
	detected, detectedLater := 0, 0
	for w := 0; w < words; w++ {
		if s.opt.SharedVectors {
			src = NewVectorSource(wordSeed(s.opt.Seed, int64(w)), s.opt.SourceProb)
		}
		var detWord, detLaterWord uint64
		// Identical initial flip-flop state in both machines.
		for _, ff := range c.FFs {
			v := src.Word(ff)
			s.good[ff] = v
			s.faulty[ff] = v
		}
		for frame := 0; frame < s.opt.Frames; frame++ {
			// Fresh primary inputs each cycle, shared by both machines.
			for _, pi := range c.PIs {
				v := src.Word(pi)
				s.good[pi] = v
				s.faulty[pi] = v
			}
			flip := netlist.InvalidID
			if frame == 0 {
				flip = site
			}
			s.eval(s.good, netlist.InvalidID)
			s.eval(s.faulty, flip)
			var frameWord uint64
			for _, po := range c.POs {
				frameWord |= s.good[po] ^ s.faulty[po]
			}
			detWord |= frameWord
			if frame > 0 {
				detLaterWord |= frameWord
			}
			// Clock edge: capture all D values atomically (read every D
			// before writing any FF, so FF-to-FF chains shift by exactly
			// one stage per cycle).
			for i, ff := range c.FFs {
				d := c.Node(ff).Fanin[0]
				s.nextG[i] = s.good[d]
				s.nextF[i] = s.faulty[d]
			}
			for i, ff := range c.FFs {
				s.good[ff] = s.nextG[i]
				s.faulty[ff] = s.nextF[i]
			}
		}
		detected += bits.OnesCount64(detWord)
		detectedLater += bits.OnesCount64(detLaterWord)
	}
	n := words * 64
	p := float64(detected) / float64(n)
	return SeqResult{
		Site:          site,
		Frames:        s.opt.Frames,
		PDetect:       p,
		StdErr:        math.Sqrt(p * (1 - p) / float64(n)),
		Trials:        n,
		Detected:      detected,
		DetectedLater: detectedLater,
	}
}

// eval evaluates the combinational logic in topological order, complementing
// the value of flip (if valid) after computing it.
func (s *Sequential) eval(vals []uint64, flip netlist.ID) {
	c := s.c
	for _, id := range c.Topo() {
		n := c.Node(id)
		switch n.Kind {
		case logic.Input, logic.DFF:
			// state already present
		case logic.Const0:
			vals[id] = 0
		case logic.Const1:
			vals[id] = ^uint64(0)
		default:
			s.ins = s.ins[:0]
			for _, f := range n.Fanin {
				s.ins = append(s.ins, vals[f])
			}
			vals[id] = logic.EvalWord(n.Kind, s.ins)
		}
		if id == flip {
			vals[id] = ^vals[id]
		}
	}
}
