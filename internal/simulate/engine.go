// Package simulate implements a 64-way bit-parallel gate-level logic
// simulator with single-event-upset fault injection, and on top of it the
// random-vector (Monte Carlo) error-propagation-probability estimators that
// the paper uses as its accuracy and runtime baseline ("SimT" in Table 2).
//
// The simulator evaluates 64 input patterns per machine word, and faulty
// re-simulation is restricted to the structural fault cone, so the baseline
// is a competently engineered comparator rather than a strawman.
//
// Three estimators share those kernels. MonteCarlo is the per-site
// single-cycle estimator (one vector stream and one good simulation per site
// per word — the paper-era baseline shape, and the per-site cost model Table
// 2's SimT column reports). Sequential is the per-site multi-cycle
// two-machine ground-truth simulator (good and faulty machines in lock step
// across clock cycles). MCBatch is the production all-sites form of both:
// vectors are shared across sites (MCOptions.SharedVectors), so each
// 64-vector word costs exactly one good simulation per frame for the whole
// circuit, and faulty re-simulation propagates one site at a time against
// a block of four words (parallel-pattern single-fault propagation), every
// frame through one event-driven sweep with the strike flip and the carried
// flip-flop state as injections; the sweep evaluates only the gates with a
// fanin differing from the good machine. Its single-cycle mode
// (NewMCBatch) reproduces shared-vector MonteCarlo bit-exactly and its
// multi-cycle mode (NewMCSeqBatch) shared-vector Sequential.
//
// # Multi-cycle seeding and state-carry contract
//
// The shared-vector regime of the multi-cycle estimators (MCBatch in
// multi-cycle mode always; Sequential when SeqOptions.SharedVectors is set)
// derives one vector stream per 64-vector word, seeded by (Seed, word index)
// through wordSeed, and draws from it in a fixed order:
//
//  1. the initial flip-flop state words, in Circuit.FFs order (both
//     machines start from identical state);
//  2. for each frame in turn, the primary-input words in Circuit.PIs order
//     (both machines see identical inputs every cycle).
//
// The error site is complemented during frame 0 only; at each clock edge
// every flip-flop atomically captures its D input in both machines (all D
// values are read before any flip-flop is written, so FF-to-FF chains shift
// by exactly one stage per cycle), which is the only way divergence crosses
// a frame boundary. Detection means a primary output differed in any frame
// — the multi-cycle PDetect quantity of internal/seq, distinct from the
// single-cycle P_sensitized, which counts flip-flop D inputs as detecting
// observation points. Because the draws depend only on (Seed, word) and the
// frame-k draw sequence is a prefix of the frame-(k+1) sequence, per-site
// results are bit-identical between multi-cycle MCBatch and shared-vector
// Sequential at any block partitioning or worker count, and every site's estimate is
// exactly monotone in the frame budget for a fixed Seed and vector count.
package simulate

import (
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Engine is a bit-parallel logic simulator over a fixed circuit. Each node
// value is a 64-bit word: bit i is the node's value under input pattern i.
// An Engine is not safe for concurrent use; create one per goroutine.
type Engine struct {
	c      *netlist.Circuit
	values []uint64 // current good-machine values, indexed by node ID
	faulty []uint64 // scratch for faulty re-simulation
	ins    []uint64 // fanin gather scratch

	// CSR adjacency views cached from the circuit (shared, read-only).
	fiIdx []int32
	fiArr []netlist.ID
	kinds []logic.Kind
}

// NewEngine returns a simulator for circuit c.
func NewEngine(c *netlist.Circuit) *Engine {
	e := &Engine{
		c:      c,
		values: make([]uint64, c.N()),
		faulty: make([]uint64, c.N()),
		ins:    make([]uint64, 0, 8),
		kinds:  c.Kinds(),
	}
	e.fiIdx, e.fiArr = c.FaninCSR()
	return e
}

// Circuit returns the simulated circuit.
func (e *Engine) Circuit() *netlist.Circuit { return e.c }

// SetSource assigns the 64-pattern word for a source node (primary input or
// flip-flop output). Tie cells are set automatically by Run.
func (e *Engine) SetSource(id netlist.ID, word uint64) {
	e.values[id] = word
}

// Run evaluates every gate in combinational topological order from the
// currently assigned source words.
func (e *Engine) Run() {
	for _, id := range e.c.Topo() {
		switch k := e.kinds[id]; k {
		case logic.Input, logic.DFF:
			// keep assigned word
		case logic.Const0:
			e.values[id] = 0
		case logic.Const1:
			e.values[id] = ^uint64(0)
		default:
			e.values[id] = e.evalInto(e.values, k, id)
		}
	}
}

// evalInto evaluates the kind-k gate driving node id, reading fanin words
// from vals via the CSR adjacency.
func (e *Engine) evalInto(vals []uint64, k logic.Kind, id netlist.ID) uint64 {
	e.ins = e.ins[:0]
	for _, f := range e.fiArr[e.fiIdx[id]:e.fiIdx[id+1]] {
		e.ins = append(e.ins, vals[f])
	}
	return logic.EvalWord(k, e.ins)
}

// Value returns the current good-machine word of node id (valid after Run).
func (e *Engine) Value(id netlist.ID) uint64 { return e.values[id] }

// ValueBit returns pattern bit's good value of node id.
func (e *Engine) ValueBit(id netlist.ID, bit uint) bool {
	return e.values[id]>>(bit%64)&1 == 1
}

// FaultySim re-simulates the circuit with the value of site complemented in
// all 64 patterns (an SEU present at that node), restricted to the given
// fault cone, and returns a word whose bit i is 1 iff the erroneous value is
// visible at one or more observation points under pattern i.
//
// Run must have been called first for the current source words. The cone must
// be the forward cone of site (graph.Walker.ForwardCone).
func (e *Engine) FaultySim(cone *graph.Cone) uint64 {
	c := e.c
	site := cone.Root
	// Seed the faulty value map lazily: only cone members diverge.
	e.faulty[site] = ^e.values[site]
	var detected uint64
	if c.IsObserved(site) {
		detected |= e.faulty[site] ^ e.values[site]
	}
	for _, id := range cone.Members[1:] {
		e.ins = e.ins[:0]
		for _, f := range e.fiArr[e.fiIdx[id]:e.fiIdx[id+1]] {
			if cone.Contains(f) {
				e.ins = append(e.ins, e.faulty[f])
			} else {
				e.ins = append(e.ins, e.values[f])
			}
		}
		w := logic.EvalWord(e.kinds[id], e.ins)
		e.faulty[id] = w
		if c.IsObserved(id) {
			detected |= w ^ e.values[id]
		}
	}
	return detected
}

// FaultyValue returns the faulty-machine word of a cone member after
// FaultySim.
func (e *Engine) FaultyValue(id netlist.ID) uint64 { return e.faulty[id] }
