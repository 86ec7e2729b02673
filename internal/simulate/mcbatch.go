// The batched Monte Carlo kernel: shared good simulations over blocks of up
// to four 64-vector words (spans claimed through resume.SweepSpans), and
// per-site event-driven faulty propagation against each block, in
// single-cycle (P_sensitized) and multi-cycle (detection within a frame
// budget) mode.

package simulate

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/resume"
)

// MCBlock is the number of 64-vector words in a block: a site's faulty
// sweep evaluates each gate on all of them at once. eval and the Const1
// block spell out its four words.
const MCBlock = 4

// block holds one value per word of a block.
type block = [MCBlock]uint64

// MCBatch is the batched Monte Carlo error-propagation estimator: the same
// random-vector fault-injection semantics as the per-site MonteCarlo and
// Sequential estimators, restructured so the good-machine work is shared
// across all error sites.
//
// The per-site estimators re-run the full good simulation once per site per
// word — O(sites × words) full-circuit simulations where O(words) suffices,
// because the good values depend only on the vectors. MCBatch inverts the
// loops, as parallel-pattern single-fault propagation does: the outer loop
// claims blocks of up to four 64-vector words and simulates the good
// machine once per word and frame, recording the block's whole good
// trajectory; the inner loop propagates each site's fault against it, one
// site at a time, every gate evaluated on the block's words at once. Sites
// that reach no observation point are skipped (their estimate is
// identically 0).
//
// A site's propagation is event-driven, as in concurrent fault simulation:
// frame 0 flips the site in every vector, and the sweep visits, in
// topological order, only the gate fanouts of nodes whose faulty block
// differs from the good one. The faulty values live in a mirror of each
// frame's good values, changed only at the nodes the current site diverged,
// and restored from the list of those nodes after every frame. At each
// clock edge exactly the flip-flops whose D input diverged carry their
// faulty D value into the next frame as injections; the site stops once
// nothing is carried. Differences at observation points are the frame's
// detections. Every value outside the diverged nodes equals the good
// machine's by construction, so per-site detection counts, and therefore
// every result, are identical at any block partitioning and worker count.
//
// The two modes differ only in what NewMCBatch and NewMCSeqBatch set up:
//
//   - Single-cycle mode (NewMCBatch) has a one-frame budget, counts a
//     difference at any observation point (Circuit.IsObserved: primary
//     outputs and flip-flop D inputs) as a detection, and draws each word's
//     vectors for every source in node-ID order (the VectorSource.Fill
//     order). It is bit-exact against a per-site MonteCarlo with
//     SharedVectors set.
//
//   - Multi-cycle mode (NewMCSeqBatch) counts primary-output differences
//     only, draws the initial flip-flop state before each frame's primary
//     inputs (the multi-cycle seeding contract in the package doc), and
//     carries corrupted flip-flop state across clock edges. It is bit-exact
//     against a per-site Sequential with SharedVectors set.
//
// Detection is counted per site as integers: trials detected in any frame,
// and with more than one frame also trials detected in a frame >= 1 and
// per-frame detections (see NewCounters), which is what lets the
// latch-window-weighted composition (SeqResult.PDetectWeighted) stay
// bit-exact and worker-invariant.
//
// Vectors are drawn from the shared-stream regime (one stream per word,
// seeded by (Seed, word index) — see MCOptions.SharedVectors): every site
// sees the same vectors, which is what makes the good sharing sound. Blocks
// are distributed over workers by the shared sweep driver
// resume.SweepSpans (see Sweep). An MCBatch may be reused for repeated
// sweeps but is not safe for concurrent use.
type MCBatch struct {
	c      *netlist.Circuit
	opt    MCOptions
	frames int          // frame budget, 1 in single-cycle mode
	obs    []bool       // per node: a difference here is a detection
	draw   []netlist.ID // frame-0 source draw order; later frames draw c.PIs
	flags  []uint8      // per node: its gate flags (see eval)
	// actArr[actIdx[id]:actIdx[id+1]] lists the topological ranks (positions
	// in c.Topo(), the sweeps' visiting order) of node id's gate fanouts:
	// the gates a divergence at id activates. With flags and obs it is
	// what an MCBatch keeps per node, O(N + fanout edges) bytes.
	actIdx []int32
	actArr []int32
	sites  []netlist.ID // the observable sites, in node-ID order
}

// NewMCBatch builds the estimator in single-cycle mode for circuit c. The
// build is linear in the circuit: gate flags, the activation lists, the
// observation mask, the draw order and the observable sites.
func NewMCBatch(c *netlist.Circuit, opt MCOptions) *MCBatch {
	m := newMCBatch(c, opt, 1)
	for id := range m.obs {
		m.obs[id] = c.IsObserved(netlist.ID(id))
		if c.Nodes[id].IsSource() {
			m.draw = append(m.draw, netlist.ID(id))
		}
	}
	return m
}

// NewMCSeqBatch builds the estimator in multi-cycle mode for circuit c with
// the given frame budget (clamped to >= 1): detection means a primary
// output differed in any frame, under the multi-cycle seeding and
// state-carry contract of the package documentation. The build is as
// linear as NewMCBatch's: which flip-flops carry a site's divergence is
// found by the sweep itself.
func NewMCSeqBatch(c *netlist.Circuit, opt MCOptions, frames int) *MCBatch {
	m := newMCBatch(c, opt, max(frames, 1))
	for _, po := range c.POs {
		m.obs[po] = true
	}
	m.draw = append(slices.Clone(c.FFs), c.PIs...)
	return m
}

// newMCBatch holds the construction both modes share: options, frame
// budget, gate flags, the activation lists and the observable sites —
// those whose observation signature is nonzero, as no vector can detect
// the others.
func newMCBatch(c *netlist.Circuit, opt MCOptions, frames int) *MCBatch {
	opt.setDefaults()
	n := c.N()
	foIdx, foArr := c.FanoutCSR()
	kinds := c.Kinds()
	m := &MCBatch{c: c, opt: opt, frames: frames, obs: make([]bool, n), flags: make([]uint8, n),
		actIdx: make([]int32, n+1), actArr: make([]int32, 0, len(foArr))}
	rank := make([]int32, n)
	for r, id := range c.Topo() {
		rank[id] = int32(r)
	}
	for id, k := range kinds {
		m.flags[id] = gateFlags(k)
		for _, o := range foArr[foIdx[id]:foIdx[id+1]] {
			if kinds[o].IsGate() {
				m.actArr = append(m.actArr, rank[o])
			}
		}
		m.actIdx[id+1] = int32(len(m.actArr))
	}
	for id, sig := range c.ObsSignatures() {
		if sig != 0 {
			m.sites = append(m.sites, netlist.ID(id))
		}
	}
	return m
}

// NewCounters returns zeroed counters shaped for this kernel: per-site
// detections always, later-frame and per-frame detections only when the
// frame budget exceeds 1. Frames[f*N+id] counts the trials site id was
// detected in during frame f (0 = the strike cycle); a trial may be
// detected in several frames, so the union over frames is Detected and
// over frames >= 1 is Later, while the counts may sum to more.
func (m *MCBatch) NewCounters() resume.Counters {
	n := m.c.N()
	cnt := resume.Counters{Detected: make([]int64, n)}
	if m.frames > 1 {
		cnt.Later = make([]int64, n)
		cnt.Frames = make([]int64, m.frames*n)
	}
	return cnt
}

// Sweep runs the given spans of 64-vector words, each at most MCBlock words
// and within [0, Words()), through resume.SweepSpans across workers
// goroutines (0 = GOMAXPROCS); doneBase is the number of words completed
// before this call. After each block, in SweepSpans' serialized report
// section, fold receives the block's words [lo, hi), its counters (valid
// only during the call) and the gates its faulty sweeps evaluated; then
// progress, when non-nil, receives the words done so far and the total.
// A non-nil error from fold aborts the sweep and is returned verbatim.
// Cancellation of ctx is checked between block claims, and a panic in a
// worker or callback becomes a *resume.SweepPanicError with Unit "words".
// The caller owns the totals, and with them resumption, budgets and
// checkpoints: per-block counters are integer sums, so folding them in any
// order gives results identical at any block partitioning and worker count.
func (m *MCBatch) Sweep(ctx context.Context, workers int, spans []resume.Range, doneBase int, fold func(lo, hi int, c *resume.Counters, visits int64) error, progress func(done, total int)) error {
	// ran[lo] is the worker that ran the block starting at word lo.
	// SweepSpans reports a block on the goroutine that ran it, so the fold
	// reads a worker whose tallies hold exactly that block.
	ran := make([]*mcWorker, m.opt.Words())
	_, err := resume.SweepSpans(ctx, spans, len(ran), doneBase, workers, 0,
		func(lo, hi int) error {
			wk := ran[lo]
			err := fold(lo, hi, &wk.Counters, wk.visits)
			wk.Counters.Reset()
			wk.visits = 0
			return err
		}, progress,
		func() (func(lo, hi int) error, error) {
			wk := m.newWorker()
			return func(lo, hi int) error {
				wk.runBlock(lo, hi)
				ran[lo] = wk
				return nil
			}, nil
		})
	var pe *resume.SweepPanicError
	if errors.As(err, &pe) && pe.Unit == "batch" {
		pe.Unit = "words"
	}
	return err
}

// Results turns the counters of a sweep over every word into the estimate
// for every node of the circuit, indexed by node ID: the multi-cycle
// detection probability in multi-cycle mode, P_sensitized with
// DetectedLater == 0 in single-cycle mode.
func (m *MCBatch) Results(tot resume.Counters) []SeqResult {
	trials := m.opt.Words() * 64
	out := make([]SeqResult, m.c.N())
	for id, d := range tot.Detected {
		p := float64(d) / float64(trials)
		out[id] = SeqResult{
			Site:     netlist.ID(id),
			Frames:   m.frames,
			PDetect:  p,
			StdErr:   math.Sqrt(p * (1 - p) / float64(trials)),
			Trials:   trials,
			Detected: int(d),
		}
		if tot.Later != nil {
			out[id].DetectedLater = int(tot.Later[id])
		}
	}
	return out
}

// mcWorker is the per-goroutine state of one sweep: the good trajectory of
// the block it runs, its faulty mirror, the propagation state of the
// current site, and the counters of the block it last ran, folded into the
// sweep totals when SweepSpans reports that block. Its arrays take
// 2 × frames × N blocks of 32 bytes plus O(N) for the active set; the gate
// flags and activation lists it reads are the MCBatch's, shared by every
// worker.
type mcWorker struct {
	resume.Counters
	visits int64 // gates evaluated since the last fold

	m       *MCBatch
	good    [][]block    // per frame, per node: the block's good values
	faulty  [][]block    // per frame: good's values, except at the nodes in changed
	active  []uint64     // bitset of topological ranks still to visit in the current frame
	changed []netlist.ID // nodes whose faulty value differs in the current frame
	inj     []mcInject   // the current frame's injections
	next    []mcInject   // the next frame's: the carried flip-flop state
}

// mcInject sets node's faulty value in a frame: the strike flip at the
// site in frame 0, a carried flip-flop state in later frames.
type mcInject struct {
	node netlist.ID
	v    block
}

func (m *MCBatch) newWorker() *mcWorker {
	n := m.c.N()
	wk := &mcWorker{
		Counters: m.NewCounters(),
		m:        m,
		good:     make([][]block, m.frames),
		faulty:   make([][]block, m.frames),
		active:   make([]uint64, (n+63)/64),
	}
	for f := range m.frames {
		wk.good[f] = make([]block, n)
		wk.faulty[f] = make([]block, n)
	}
	return wk
}

// runBlock applies the shared vectors of words [lo, hi), at most MCBlock of
// them: the good trajectory, then every observable site's propagation.
// The strike flips only the block's first hi-lo words, so the words past
// them in a partial block never diverge and never count.
func (wk *mcWorker) runBlock(lo, hi int) {
	m := wk.m
	nw := hi - lo
	wk.goodSim(lo, nw)
	wk.Words += int64(nw)
	wk.GoodSims += int64(nw * m.frames)
	n := m.c.N()
	for _, site := range m.sites {
		var det, later block
		strike := wk.good[0][site]
		for i := range nw {
			strike[i] = ^strike[i]
		}
		wk.inj = append(wk.inj[:0], mcInject{node: site, v: strike})
		for f := 0; f < m.frames && len(wk.inj) > 0; f++ {
			d := wk.frame(f)
			for i, w := range d {
				det[i] |= w
				if f > 0 {
					later[i] |= w
				}
			}
			if wk.Frames != nil {
				wk.Frames[f*n+int(site)] += popcount(&d)
			}
		}
		wk.Detected[site] += popcount(&det)
		if wk.Later != nil {
			wk.Later[site] += popcount(&later)
		}
	}
}

// goodSim simulates the good machine on words [lo, lo+nw) into good, every
// frame once for the whole block: each word draws its sources from its own
// shared stream (the frame-0 draw list, then c.PIs in every later frame),
// flip-flops latch the previous frame's D inputs, and gates are evaluated
// on all words at once. Words from nw on get all-zero sources, so their
// values are consistent but never used. The faulty mirror is reset to the
// result.
func (wk *mcWorker) goodSim(lo, nw int) {
	m := wk.m
	c := m.c
	for i := range MCBlock {
		var src *VectorSource
		if i < nw {
			src = NewVectorSource(wordSeed(m.opt.Seed, int64(lo+i)), m.opt.SourceProb)
		}
		draw := m.draw
		for f := range m.frames {
			for _, id := range draw {
				var w uint64
				if src != nil {
					w = src.Word(id)
				}
				wk.good[f][id][i] = w
			}
			draw = c.PIs
		}
	}
	fiIdx, fiArr := c.FaninCSR()
	kinds := c.Kinds()
	for f, good := range wk.good {
		if f > 0 {
			// Clock edge: frame f-1 is complete, so every flip-flop latches
			// its D input atomically.
			for _, ff := range c.FFs {
				good[ff] = wk.good[f-1][fiArr[fiIdx[ff]]]
			}
		}
		for _, id := range c.Topo() {
			switch k := kinds[id]; {
			case k.IsGate():
				v0, v1, v2, v3 := eval(m.flags[id], fiArr[fiIdx[id]:fiIdx[id+1]], good)
				good[id] = block{v0, v1, v2, v3}
			case k == logic.Const0:
				good[id] = block{}
			case k == logic.Const1:
				good[id] = block{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
			}
		}
		copy(wk.faulty[f], good)
	}
}

// frame propagates the current site through frame f and returns the
// frame's detections. It writes the frame's injections (wk.inj) into the
// faulty mirror, then drains the active set in topological order: each
// visited gate is evaluated against the mirror, and one whose value now
// differs from the good value is recorded, checked at observation points
// and has its gate fanouts activated. Flip-flops whose D input differs
// become the next frame's injections, the mirror is restored, and wk.inj
// holds those injections on return.
func (wk *mcWorker) frame(f int) (det block) {
	m := wk.m
	c := m.c
	good, fv := wk.good[f], wk.faulty[f]
	fiIdx, fiArr := c.FaninCSR()
	foIdx, foArr := c.FanoutCSR()
	kinds := c.Kinds()
	topo, obs, flags, actIdx, actArr := c.Topo(), m.obs, m.flags, m.actIdx, m.actArr
	act := wk.active
	lo, hi := len(act), -1
	// diverged records that id's value now differs from the good value.
	diverged := func(id netlist.ID, v block) {
		fv[id] = v
		wk.changed = append(wk.changed, id)
		if obs[id] {
			g := &good[id]
			for i := range det {
				det[i] |= v[i] ^ g[i]
			}
		}
		for _, r := range actArr[actIdx[id]:actIdx[id+1]] {
			act[r>>6] |= 1 << uint(r&63)
			lo, hi = min(lo, int(r>>6)), max(hi, int(r>>6))
		}
	}
	for _, in := range wk.inj {
		diverged(in.node, in.v)
	}
	// Fanouts sit at higher ranks than the node activating them, so the
	// bitset is drained in ascending order while it is being filled.
	for aw := lo; aw <= hi; aw++ {
		for act[aw] != 0 {
			id := topo[aw*64+bits.TrailingZeros64(act[aw])]
			act[aw] &= act[aw] - 1
			wk.visits++
			v0, v1, v2, v3 := eval(flags[id], fiArr[fiIdx[id]:fiIdx[id+1]], fv)
			if g := &good[id]; v0 != g[0] || v1 != g[1] || v2 != g[2] || v3 != g[3] {
				diverged(id, block{v0, v1, v2, v3})
			}
		}
	}
	wk.next = wk.next[:0]
	for _, id := range wk.changed {
		if f+1 < m.frames {
			for _, o := range foArr[foIdx[id]:foIdx[id+1]] {
				if kinds[o] == logic.DFF {
					wk.next = append(wk.next, mcInject{node: o, v: fv[id]})
				}
			}
		}
		fv[id] = good[id]
	}
	wk.changed = wk.changed[:0]
	wk.inj, wk.next = wk.next, wk.inj
	return det
}

// Gate flags: one byte per node, set by newMCBatch, selects the fold eval
// applies. With masks in and out each all-zero or all-one, every AND, NAND,
// OR, NOR, BUF and NOT gate is AND_k(x_k ^ in) ^ out, by De Morgan: NAND
// and NOT complement the output, NOR the inputs, OR both. XOR and XNOR fold
// parity instead, XNOR with the output complemented.
const (
	complIn  uint8 = 1 << iota // in is all-one: OR, NOR
	complOut                   // out is all-one: NAND, NOT, OR, XNOR
	parity                     // XOR the fanins instead of ANDing them
)

// gateFlags returns the flags of kind k; AND, BUF and every non-gate kind
// have none.
func gateFlags(k logic.Kind) uint8 {
	switch k {
	case logic.Nand, logic.Not:
		return complOut
	case logic.Or:
		return complIn | complOut
	case logic.Nor:
		return complIn
	case logic.Xor:
		return parity
	case logic.Xnor:
		return parity | complOut
	}
	return 0
}

// eval evaluates a gate with flags fl over a block: word i of the result,
// vi, is logic.EvalWord of word i of the fanins' values in vals. Its one
// branch, the parity test, is never taken on a circuit without XOR gates
// and rarely on most others, so it predicts well where a switch on the
// gate kind would not. The words come back as four scalars, which the
// compiler keeps in registers; a block would make a round trip through the
// stack.
func eval(fl uint8, fanin []netlist.ID, vals []block) (v0, v1, v2, v3 uint64) {
	in, out := -uint64(fl&complIn), -uint64(fl&complOut>>1)
	x := &vals[fanin[0]]
	v0, v1, v2, v3 = x[0]^in, x[1]^in, x[2]^in, x[3]^in
	if fl&parity == 0 {
		for _, f := range fanin[1:] {
			x := &vals[f]
			v0, v1, v2, v3 = v0&(x[0]^in), v1&(x[1]^in), v2&(x[2]^in), v3&(x[3]^in)
		}
	} else {
		for _, f := range fanin[1:] {
			x := &vals[f]
			v0, v1, v2, v3 = v0^x[0], v1^x[1], v2^x[2], v3^x[3]
		}
	}
	return v0 ^ out, v1 ^ out, v2 ^ out, v3 ^ out
}

// popcount returns the number of set bits in b.
func popcount(b *block) int64 {
	return int64(bits.OnesCount64(b[0]) + bits.OnesCount64(b[1]) + bits.OnesCount64(b[2]) + bits.OnesCount64(b[3]))
}

// wordSeed derives the deterministic vector-source seed of 64-vector word w
// in the shared-stream regime (see MCOptions.SharedVectors): every site —
// and every worker claiming the word — sees identical vectors for word w.
func wordSeed(seed uint64, w int64) uint64 {
	return seed ^ (uint64(w)*0x94d049bb133111eb + 0x2545f4914f6cdd1d)
}
