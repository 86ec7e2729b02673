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
// latch-window coupling is the strike weight: the strike frame's
// primary-output detection term is a narrow transient racing the capturing
// register's latching window, so the composition scales it by a strike
// weight (latch.Model.FrameWeight(0)); detections in frames >= 1 are
// full-cycle values re-launched from flip-flops, whose capture weight is
// identically 1 (latch.Model.FrameWeight(k >= 1)), so the lookahead
// recursion R is never derated and flip-flop captures carry the error
// deterministically — exactly the semantics of the Monte Carlo kernel's
// carried lane state. Validation against the sequential fault-injection
// simulator (simulate.Sequential) is in the test suite.
//
// R depends only on the circuit and its signal probabilities, so it is one
// immutable value, the Lookahead: built once by a single batched sweep of
// every flip-flop's profile, then read concurrently by every worker of an
// all-sites sweep. Lookahead.PDetect composes any strike-frame core.Result
// with it — the batched and the scalar engines share that one composition.
package seq

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Lookahead is the flip-flop lookahead of one circuit and signal
// probability vector: every flip-flop's one-frame propagation profile and
// R(·, k) for k = 1..Frames()−1. It is immutable once built and safe to
// share between goroutines.
type Lookahead struct {
	c     *netlist.Circuit
	ffPos []int32     // position in c.FFs by node ID (flip-flops only)
	prof  []profile   // per flip-flop, in c.FFs order
	r     [][]float64 // r[k-1][j] = R(c.FFs[j], k)
}

// profile is the one-frame propagation profile of an error source: the
// probability it reaches a primary output in that frame, and the flip-flops
// whose D input it reaches with nonzero probability, in c.FFs order.
type profile struct {
	pPO  float64
	caps []capture
}

// capture is the probability perr that an error reaches the D input of the
// flip-flop at position ff of c.FFs.
type capture struct {
	ff   int
	perr float64
}

// NewLookahead sweeps every flip-flop's one-frame profile on epp's batched
// engine — c.FFs in order, a batch width of flip-flops per union-cone pass —
// and iterates R(·, 1..frames−1) forward, so the lookahead serves
// compositions of up to frames frames. It drives epp, which must not be in
// use concurrently; the returned value reads nothing of epp afterwards.
func NewLookahead(epp *core.Analyzer, frames int) *Lookahead {
	c := epp.Circuit()
	l := &Lookahead{c: c, ffPos: make([]int32, c.N()), prof: make([]profile, len(c.FFs))}
	for j, ff := range c.FFs {
		l.ffPos[ff] = int32(j)
	}
	eng := epp.Batch()
	results := make([]core.Result, eng.Width())
	for lo := 0; lo < len(c.FFs); lo += eng.Width() {
		hi := min(lo+eng.Width(), len(c.FFs))
		eng.EPPBatch(c.FFs[lo:hi], results[:hi-lo])
		for j := range results[:hi-lo] {
			l.prof[lo+j] = l.profile(&results[j])
		}
	}
	return l.deepen(frames)
}

// Frames returns the largest frame budget the lookahead serves.
func (l *Lookahead) Frames() int { return len(l.r) + 1 }

// deepen returns a lookahead serving frames, l itself if it already does:
// the missing rows are iterated forward on a copy, sharing the profiles.
// R(f, k) is the composition of f's profile with R(·, k−1) at weight 1: an
// error held in f is a strike at f's output one frame later.
func (l *Lookahead) deepen(frames int) *Lookahead {
	if frames <= l.Frames() {
		return l
	}
	d := *l
	d.r = slices.Clip(l.r)
	for k := d.Frames(); k < frames; k++ {
		row := make([]float64, len(d.prof))
		for j := range d.prof {
			row[j] = d.fold(&d.prof[j], k, 1)
		}
		d.r = append(d.r, row)
	}
	return &d
}

// profile converts one strike-frame EPP result (scalar or batched) into its
// primary-output detection probability and flip-flop captures. The
// primary-output miss product folds res.Outputs in list order, which both
// engines give in ascending node ID.
func (l *Lookahead) profile(res *core.Result) profile {
	var p profile
	missPO := 1.0
	for _, o := range res.Outputs {
		perr := o.State.PErr()
		node := l.c.Node(o.Output)
		if node.IsPO {
			missPO *= 1 - perr
		}
		// The same net may also feed one or more flip-flops.
		if perr > 0 {
			for _, fo := range node.Fanout {
				if l.c.Node(fo).Kind == logic.DFF {
					p.caps = append(p.caps, capture{ff: int(l.ffPos[fo]), perr: perr})
				}
			}
		}
	}
	p.pPO = 1 - missPO
	slices.SortFunc(p.caps, func(a, b capture) int { return a.ff - b.ff })
	return p
}

// fold composes a strike-frame profile with R(·, frames−1), the strike
// term derated by w: the probability the error is observed at a primary
// output within frames cycles. Captures multiply in c.FFs order.
func (l *Lookahead) fold(p *profile, frames int, w float64) float64 {
	if frames == 1 {
		return w * p.pPO
	}
	r := l.r[frames-2]
	// float64(...) rounds each product: no fused multiply-add.
	miss := 1 - float64(w*p.pPO)
	for _, c := range p.caps {
		miss *= 1 - float64(c.perr*r[c.ff])
	}
	return 1 - miss
}

// PDetect composes one site's strike-frame EPP result with the lookahead:
// the probability an SEU at res.Site is observed at a primary output within
// frames clock cycles, with the strike frame's primary-output detection
// term scaled by strikeWeight — the latch-window coupling of the
// composition (pass latch.Model.FrameWeight(0); 1 is the unweighted
// analysis). The model: a detection event in frame k is captured by the
// observing register with probability w(k), independent across frames;
// w(0) = strikeWeight (the transient races the window) and w(k >= 1) = 1
// (re-launched flip-flop values are full-cycle levels), so only the strike
// term is derated. frames must lie in [1, Frames()] and strikeWeight in
// [0, 1]. PDetect only reads the lookahead, so any number of goroutines may
// call it at once, and the result is the same for a scalar or a batched
// strike sweep of the site.
func (l *Lookahead) PDetect(res *core.Result, frames int, strikeWeight float64) float64 {
	if frames < 1 || frames > l.Frames() {
		panic(fmt.Sprintf("seq: PDetect with frames = %d (lookahead serves 1..%d)", frames, l.Frames()))
	}
	if !(strikeWeight >= 0 && strikeWeight <= 1) { // also catches NaN
		panic(fmt.Sprintf("seq: strike weight %v outside [0,1]", strikeWeight))
	}
	p := l.profile(res)
	return l.fold(&p, frames, strikeWeight)
}

// Analyzer computes multi-cycle detection probabilities site by site over
// a fixed circuit and signal probability assignment: a scalar strike sweep
// per query, composed with a Lookahead that deepens to the largest frame
// budget asked for so far. Not safe for concurrent use.
type Analyzer struct {
	epp *core.Analyzer
	la  *Lookahead
}

// New returns a multi-cycle analyzer using the given off-path signal
// probabilities (as in core.New); it sweeps the flip-flop profiles once.
func New(c *netlist.Circuit, sp []float64) (*Analyzer, error) {
	epp, err := core.New(c, sp, core.Options{})
	if err != nil {
		return nil, err
	}
	return &Analyzer{epp: epp, la: NewLookahead(epp, 1)}, nil
}

// PDetect returns the probability that an SEU at site is observed at a
// primary output within frames clock cycles; frames = 1 is the strike cycle
// only. frames must be >= 1.
func (a *Analyzer) PDetect(site netlist.ID, frames int) float64 {
	return a.PDetectWeighted(site, frames, 1)
}

// PDetectWeighted is PDetect with the strike frame's primary-output
// detection term scaled by strikeWeight (see Lookahead.PDetect), which
// must lie in [0, 1]; PDetectWeighted(site, frames, 1) == PDetect(site,
// frames) exactly.
func (a *Analyzer) PDetectWeighted(site netlist.ID, frames int, strikeWeight float64) float64 {
	a.la = a.la.deepen(frames)
	res := a.epp.EPP(site)
	return a.la.PDetect(&res, frames, strikeWeight)
}

// PDetectCurve returns PDetect(site, k) for k = 1..frames in one pass, useful
// for plotting detection-latency curves.
func (a *Analyzer) PDetectCurve(site netlist.ID, frames int) []float64 {
	if frames < 1 {
		panic(fmt.Sprintf("seq: PDetectCurve with frames = %d", frames))
	}
	a.la = a.la.deepen(frames)
	res := a.epp.EPP(site)
	p := a.la.profile(&res)
	out := make([]float64, frames)
	for k := range out {
		out[k] = a.la.fold(&p, k+1, 1)
	}
	return out
}
