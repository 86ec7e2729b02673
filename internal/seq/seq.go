// Package seq extends the paper's single-cycle EPP analysis to multi-cycle
// (sequential) error propagation: an erroneous value that is captured by
// flip-flops at the strike cycle keeps propagating through the combinational
// logic in subsequent cycles until it either reaches a primary output or is
// logically masked everywhere.
//
// The DATE 2005 paper stops at the flip-flop boundary (P_sensitized counts
// FF D inputs as detecting outputs); multi-cycle propagation is the
// extension the authors pursued in their follow-up work. The model here is
// the standard frame-unrolled approximation:
//
//   - One EPP sweep per error source (the original site, plus each flip-flop
//     output) yields, per source s: pPO(s), the probability the error
//     reaches a primary output in that frame, and cap(s → f), the
//     probability it reaches flip-flop f's D input with either polarity.
//
//   - R(f, k) — the probability an error held in flip-flop f is observed at
//     a primary output within k frames — satisfies
//
//     R(f, 1) = pPO(f)
//     R(f, k) = 1 − (1 − pPO(f)) · ∏_g (1 − cap(f→g)·R(g, k−1))
//
//   - PDetect(site, K) composes the strike-frame sweep with R over the
//     captured flip-flops.
//
// Flip-flop captures within one frame are treated as independent (the same
// assumption the single-cycle method makes across reconvergent outputs), and
// a captured error is assumed to be latched with certainty. The
// latch-window coupling is the Weighted variants: the strike frame's
// primary-output detection term is a narrow transient racing the capturing
// register's latching window, so PDetectWeighted/PDetectBatchWeighted scale
// it by a strike weight (latch.Model.FrameWeight(0)); detections in frames
// >= 1 are full-cycle values re-launched from flip-flops, whose capture
// weight is identically 1 (latch.Model.FrameWeight(k >= 1)), so the
// lookahead recursion R is never derated and flip-flop captures carry the
// error deterministically — exactly the semantics of the Monte Carlo
// kernel's carried lane state. Validation against the sequential
// fault-injection simulator (simulate.Sequential) is in the test suite.
package seq

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Analyzer computes multi-cycle detection probabilities over a fixed circuit
// and signal probability assignment. Not safe for concurrent use.
type Analyzer struct {
	c    *netlist.Circuit
	epp  *core.Analyzer
	nFFs int
	// ffIndex maps a DFF node ID to its dense index in sweep vectors.
	ffIndex map[netlist.ID]int
	ffIDs   []netlist.ID
	// memoized per-FF single-frame sweeps.
	ffSweep []*frameSweep
	// rCache memoizes the converged R(·, lookahead) vectors, which are
	// site-independent, so an all-nodes multi-cycle analysis pays the R
	// iteration once per frame budget instead of once per site.
	rCache map[int][]float64
	// batchScratch holds the batched strike-sweep results reused across
	// PDetectBatchWeighted calls.
	batchScratch []core.Result
}

// frameSweep is the one-frame propagation profile of an error source.
type frameSweep struct {
	pPO float64   // probability of reaching a primary output this frame
	cap []float64 // per-FF-index probability of reaching that FF's D input
}

// New returns a multi-cycle analyzer using the given off-path signal
// probabilities (as in core.New).
func New(c *netlist.Circuit, sp []float64) (*Analyzer, error) {
	epp, err := core.New(c, sp, core.Options{})
	if err != nil {
		return nil, err
	}
	return NewFrom(epp), nil
}

// NewFrom returns a multi-cycle analyzer whose strike and flip-flop sweeps
// run on epp's batched engine, at epp's batch width. The returned analyzer
// drives epp; neither may be used concurrently with the other.
func NewFrom(epp *core.Analyzer) *Analyzer {
	c := epp.Circuit()
	a := &Analyzer{
		c:       c,
		epp:     epp,
		nFFs:    len(c.FFs),
		ffIndex: make(map[netlist.ID]int, len(c.FFs)),
	}
	a.ffIDs = append(a.ffIDs, c.FFs...)
	for i, ff := range c.FFs {
		a.ffIndex[ff] = i
	}
	a.ffSweep = make([]*frameSweep, a.nFFs)
	a.rCache = make(map[int][]float64)
	return a
}

// rVector returns the memoized R(·, lookahead) vector: per flip-flop, the
// probability an error held in it is observed at a primary output within
// lookahead frames. lookahead >= 1.
func (a *Analyzer) rVector(lookahead int) []float64 {
	if r, ok := a.rCache[lookahead]; ok {
		return r
	}
	a.ensureFFProfiles()
	r := make([]float64, a.nFFs)
	if lookahead == 1 {
		for i := 0; i < a.nFFs; i++ {
			r[i] = a.ffSweep[i].pPO
		}
	} else {
		prev := a.rVector(lookahead - 1)
		for i := 0; i < a.nFFs; i++ {
			fs := a.ffSweep[i]
			miss := 1 - fs.pPO
			for j, c := range fs.cap {
				if c > 0 {
					miss *= 1 - c*prev[j]
				}
			}
			r[i] = 1 - miss
		}
	}
	a.rCache[lookahead] = r
	return r
}

// sweepFrom runs one single-frame EPP sweep from source and splits the
// outcome into the PO-detection probability and per-FF capture
// probabilities.
func (a *Analyzer) sweepFrom(source netlist.ID) *frameSweep {
	res := a.epp.EPP(source)
	return a.profileFromResult(&res)
}

// profileFromResult converts one EPP Result (scalar or batched) into the
// PO-detection probability and per-FF capture probabilities.
func (a *Analyzer) profileFromResult(res *core.Result) *frameSweep {
	fs := &frameSweep{cap: make([]float64, a.nFFs)}
	missPO := 1.0
	for _, o := range res.Outputs {
		perr := o.State.PErr()
		node := a.c.Node(o.Output)
		if node.IsPO {
			missPO *= 1 - perr
		}
		// The same net may also feed one or more flip-flops.
		for _, fo := range node.Fanout {
			if a.c.Node(fo).Kind == logic.DFF && a.c.Node(fo).Fanin[0] == o.Output {
				fs.cap[a.ffIndex[fo]] = perr
			}
		}
	}
	fs.pPO = 1 - missPO
	return fs
}

// ensureFFProfiles computes every flip-flop's single-frame profile through
// the EPP analyzer's batched engine, a batch of sources per union-cone
// sweep. The R iteration (rVector) needs all of them anyway, so batching
// here amortizes cone extraction across flip-flops exactly as the
// all-sites analysis does across error sites. It fills every profile in
// one call, so a set first one means all are.
func (a *Analyzer) ensureFFProfiles() {
	if a.nFFs == 0 || a.ffSweep[0] != nil {
		return
	}
	eng := a.epp.Batch()
	results := make([]core.Result, eng.Width())
	for lo := 0; lo < a.nFFs; lo += eng.Width() {
		hi := min(lo+eng.Width(), a.nFFs)
		eng.EPPBatch(a.ffIDs[lo:hi], results[:hi-lo])
		for j := range results[:hi-lo] {
			a.ffSweep[lo+j] = a.profileFromResult(&results[j])
		}
	}
}

// PDetect returns the probability that an SEU at site is observed at a
// primary output within frames clock cycles; frames = 1 is the strike cycle
// only. frames must be >= 1.
func (a *Analyzer) PDetect(site netlist.ID, frames int) float64 {
	return a.PDetectWeighted(site, frames, 1)
}

// PDetectWeighted is PDetect with the strike frame's primary-output
// detection term scaled by strikeWeight — the latch-window coupling of the
// multi-cycle composition (pass latch.Model.FrameWeight(0)). The model:
// a detection event in frame k is captured by the observing register with
// probability w(k), independent across frames; w(0) = strikeWeight (the
// transient races the window) and w(k >= 1) = 1 (re-launched flip-flop
// values are full-cycle levels), so only the strike term is derated —
// flip-flop captures themselves carry the error deterministically and the
// lookahead recursion is unchanged. strikeWeight must lie in [0, 1];
// PDetectWeighted(site, frames, 1) == PDetect(site, frames) exactly.
func (a *Analyzer) PDetectWeighted(site netlist.ID, frames int, strikeWeight float64) float64 {
	if frames < 1 {
		panic(fmt.Sprintf("seq: PDetectWeighted with frames = %d", frames))
	}
	checkStrikeWeight(strikeWeight)
	strike := a.sweepFrom(site)
	if frames == 1 {
		return strikeWeight * strike.pPO
	}
	return a.compose(strike, a.rVector(frames-1), strikeWeight)
}

// checkStrikeWeight rejects out-of-range strike weights: a weight outside
// [0, 1] is a programming error (latch.Model.FrameWeight clamps), not a
// runtime condition.
func checkStrikeWeight(w float64) {
	if !(w >= 0 && w <= 1) { // also catches NaN
		panic(fmt.Sprintf("seq: strike weight %v outside [0,1]", w))
	}
}

// compose combines a strike-frame profile with the per-FF lookahead vector,
// the strike term derated by w0 (1 = the unweighted composition).
func (a *Analyzer) compose(strike *frameSweep, r []float64, w0 float64) float64 {
	miss := 1 - w0*strike.pPO
	for j, c := range strike.cap {
		if c > 0 {
			miss *= 1 - c*r[j]
		}
	}
	return 1 - miss
}

// PDetectBatchWeighted computes PDetectWeighted(sites[i], frames,
// strikeWeight) into out[i]: one batched union-cone strike sweep serves each
// batch-width chunk of sites, and the per-FF lookahead vector is memoized
// across calls. Results are bit-identical under any batch composition (the
// strike sweeps are packing-invariant and the composition, weighting
// included, is per-site arithmetic), which is what lets the epp-batch
// engine distribute batches over workers. len(out) must equal len(sites).
func (a *Analyzer) PDetectBatchWeighted(sites []netlist.ID, frames int, strikeWeight float64, out []float64) {
	if frames < 1 {
		panic(fmt.Sprintf("seq: PDetectBatchWeighted with frames = %d", frames))
	}
	checkStrikeWeight(strikeWeight)
	if len(sites) != len(out) {
		panic(fmt.Sprintf("seq: PDetectBatchWeighted with %d sites and %d outputs", len(sites), len(out)))
	}
	var r []float64
	if frames > 1 {
		r = a.rVector(frames - 1)
	}
	eng := a.epp.Batch()
	if cap(a.batchScratch) < eng.Width() {
		a.batchScratch = make([]core.Result, eng.Width())
	}
	for lo := 0; lo < len(sites); lo += eng.Width() {
		hi := lo + eng.Width()
		if hi > len(sites) {
			hi = len(sites)
		}
		results := a.batchScratch[:hi-lo]
		eng.EPPBatch(sites[lo:hi], results)
		for i := range results {
			strike := a.profileFromResult(&results[i])
			if frames == 1 {
				out[lo+i] = strikeWeight * strike.pPO
			} else {
				out[lo+i] = a.compose(strike, r, strikeWeight)
			}
		}
	}
}

// PDetectCurve returns PDetect(site, k) for k = 1..frames in one pass, useful
// for plotting detection-latency curves.
func (a *Analyzer) PDetectCurve(site netlist.ID, frames int) []float64 {
	if frames < 1 {
		panic(fmt.Sprintf("seq: PDetectCurve with frames = %d", frames))
	}
	out := make([]float64, frames)
	strike := a.sweepFrom(site)
	out[0] = strike.pPO
	for k := 2; k <= frames; k++ {
		out[k-1] = a.compose(strike, a.rVector(k-1), 1)
	}
	return out
}
