// Package graph implements the structural traversal the EPP method is built
// on (paper §2, steps 1 and 2): forward cone extraction from error sites to
// all reachable observation points via depth-first search, in topological
// order. Walker.UnionCone walks one union of cones at a time: the scalar
// analyses take the one-root case (ForwardCone), and the batched EPP kernel
// takes each batch's pending sites at sweep time. The Monte Carlo kernel
// keeps no cone: its sweep follows divergence into gate fanouts.
//
// The traversal treats D flip-flops as time-frame boundaries: propagation
// stops at a flip-flop's D input (which is an observation point) and never
// continues through the flip-flop's output.
package graph

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Cone is the forward structural cone of an error site: exactly the on-path
// signals of the paper. Every member other than the root is an on-path gate
// (a gate with at least one on-path input).
type Cone struct {
	Root netlist.ID
	// Members lists the cone's nodes in combinational topological order,
	// starting with Root. Every analysis sweep iterates this slice.
	Members []netlist.ID
	// Outputs lists the observation points (POs and FF D inputs) inside the
	// cone, i.e. the outputs reachable from Root, in topological order.
	Outputs []netlist.ID
	// Membership stamps shared with the owning Walker, valid until it
	// extracts another cone.
	stamp []uint32
	epoch uint32
}

// Contains reports whether node id is an on-path signal of the cone.
func (c *Cone) Contains(id netlist.ID) bool { return c.stamp[id] == c.epoch }

// Size returns the number of on-path signals.
func (c *Cone) Size() int { return len(c.Members) }

// Walker extracts forward cones from a fixed circuit. It keeps reusable
// scratch so repeated extraction (the all-nodes SER loop) performs no
// per-call allocation: returned slices alias the Walker's scratch and are
// invalidated by the next extraction. Membership is epoch-stamped, so
// starting a new cone costs O(1) instead of clearing the previous one. A
// Walker is not safe for concurrent use; create one per goroutine.
type Walker struct {
	c       *netlist.Circuit
	stamp   []uint32 // stamp[id] == epoch iff id is in the last cone
	epoch   uint32
	stack   []netlist.ID
	touched []netlist.ID // members in discovery order
	counts  []int32      // per-level counting-sort scratch, reused
	members []netlist.ID // level-sorted members, reused
	outputs []netlist.ID // observed members, reused

	// CSR views of the circuit, cached so the DFS inner loop reads flat
	// arrays instead of dereferencing Node structs.
	foIdx  []int32
	foArr  []netlist.ID
	kinds  []logic.Kind
	levels []int
}

// NewWalker returns a Walker over circuit c.
func NewWalker(c *netlist.Circuit) *Walker {
	w := &Walker{c: c, stamp: make([]uint32, c.N())}
	w.foIdx, w.foArr = c.FanoutCSR()
	w.kinds = c.Kinds()
	w.levels = c.Levels()
	return w
}

// UnionCone returns the union of the forward cones of roots: every node
// reachable from a root through combinational gates, never crossing a
// flip-flop, in combinational level order — a valid topological order,
// since every gate's level exceeds all of its fanins'. Nodes on one level
// keep their DFS discovery order, so the result is a pure function of the
// roots and their order; duplicate roots are allowed. The slice aliases
// the Walker's scratch; Stamps answers membership of the same cone.
func (w *Walker) UnionCone(roots []netlist.ID) []netlist.ID {
	w.epoch++
	if w.epoch == 0 { // uint32 wraparound: invalidate every stamp
		clear(w.stamp)
		w.epoch = 1
	}
	ep := w.epoch
	w.touched = w.touched[:0]
	w.stack = w.stack[:0]
	for _, r := range roots {
		if w.stamp[r] != ep {
			w.stamp[r] = ep
			w.touched = append(w.touched, r)
			w.stack = append(w.stack, r)
		}
	}
	for len(w.stack) > 0 {
		id := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		for _, out := range w.foArr[w.foIdx[id]:w.foIdx[id+1]] {
			if w.stamp[out] == ep {
				continue
			}
			if w.kinds[out] == logic.DFF {
				continue // time-frame boundary: do not cross
			}
			w.stamp[out] = ep
			w.touched = append(w.touched, out)
			w.stack = append(w.stack, out)
		}
	}

	// Counting sort on the precomputed combinational level: O(|cone| +
	// depth) and allocation-free after warm-up.
	maxLv := 0
	for _, id := range w.touched {
		if lv := w.levels[id]; lv > maxLv {
			maxLv = lv
		}
	}
	if cap(w.counts) < maxLv+2 {
		w.counts = make([]int32, maxLv+2)
	}
	counts := w.counts[:maxLv+2]
	clear(counts)
	for _, id := range w.touched {
		counts[w.levels[id]+1]++
	}
	for lv := 1; lv < len(counts); lv++ {
		counts[lv] += counts[lv-1]
	}
	if cap(w.members) < len(w.touched) {
		w.members = make([]netlist.ID, len(w.touched))
	}
	w.members = w.members[:len(w.touched)]
	for _, id := range w.touched {
		lv := w.levels[id]
		w.members[counts[lv]] = id
		counts[lv]++
	}
	return w.members
}

// Stamps exposes membership of the last extracted cone as flat data for
// kernel inner loops: id is a member iff stamp[id] == epoch. Epoch 1 marks
// a fresh stamp space — the first extraction, or the first after the
// uint32 epoch wrapped and every stamp was cleared — so a caller keeping
// its own stamps under this epoch must clear them when it sees 1.
func (w *Walker) Stamps() (stamp []uint32, epoch uint32) { return w.stamp, w.epoch }

// ForwardCone extracts the on-path cone of root: UnionCone of the single
// root (which therefore comes first), together with the reachable
// observation points. The returned Cone shares scratch with the Walker and
// is invalidated by the next extraction.
func (w *Walker) ForwardCone(root netlist.ID) Cone {
	members := w.UnionCone([]netlist.ID{root})
	w.outputs = w.outputs[:0]
	for _, id := range members {
		if w.c.IsObserved(id) {
			w.outputs = append(w.outputs, id)
		}
	}
	return Cone{Root: root, Members: members, Outputs: w.outputs, stamp: w.stamp, epoch: w.epoch}
}
