// Multi-cycle mode of the batched Monte Carlo kernel: the sequential lane
// closure that precomputes each group's carried flip-flops and, per frame,
// the carried injections and static counts of its exact sweep.

package simulate

import (
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// NewMCSeqBatch builds the estimator in multi-cycle mode for circuit c with
// the given frame budget (clamped to >= 1): detection means a primary
// output differed in any frame, under the multi-cycle seeding and
// state-carry contract of the package documentation. The precomputed
// structures are shared read-only by all sweep workers.
func NewMCSeqBatch(c *netlist.Circuit, opt MCOptions, frames int) *MCBatch {
	if frames < 1 {
		frames = 1
	}
	m := newMCBatch(c, opt, frames)
	for _, po := range c.POs {
		m.obs[po] = true
	}
	m.draw = append(append([]netlist.ID(nil), c.FFs...), c.PIs...)
	if frames == 1 {
		// A single-frame budget never runs the capture or frames>=1 sweeps,
		// so the sequential closure structures would be dead weight —
		// construction then costs the same as single-cycle mode's.
		return m
	}

	n := c.N()
	mask := make([]uint64, n)  // sequential lane-closure state
	smask := make([]uint64, n) // per-frame on-path lane masks (scratch)
	dmask := make([]uint64, len(c.FFs))
	ffLocal := make([]int32, n) // FF id -> index into the group's ffIDs
	ffSeen := make([]int32, n)  // group stamp: FF already in the group's ffIDs
	for i := range ffSeen {
		ffSeen[i] = -1
	}
	topo := c.Topo()
	kinds := c.Kinds()
	fiIdx, fiArr := c.FaninCSR()

	for gi := range m.groups {
		g := &m.groups[gi]

		// Lane closure over the sequential graph: after edge step k,
		// mask[id] bit l is set iff lane l's divergence can reach id within
		// k clock edges. One combinational topological pass per iteration,
		// then a clock-edge step that pushes each flip-flop's D-input mask
		// onto its output. The per-edge states are exactly the frame sweeps:
		// frame k's faulty sweep covers the combinational cone of the
		// flip-flops carrying lanes after k edges — the exact reachable set
		// for that frame, not the frame-budget superset. Masks only
		// accumulate, so once no flip-flop gains a lane the remaining frames
		// share the last sweep structure.
		for i := range mask {
			mask[i] = 0
		}
		for lane, site := range g.sites {
			mask[site] |= 1 << uint(lane)
		}
		for edge := 1; edge < frames; edge++ {
			for _, id := range topo {
				if kinds[id].IsGate() {
					mk := mask[id]
					for _, f := range fiArr[fiIdx[id]:fiIdx[id+1]] {
						mk |= mask[f]
					}
					mask[id] = mk
				}
			}
			// Atomic clock edge: read every D mask before writing any FF
			// (mirroring the simulator's edge), so a lane crosses exactly
			// one flip-flop stage per step and mask stays the exact
			// <= edge reach — non-atomic updates would let lanes jump whole
			// FF chains in one step and inflate the early frames' sweeps.
			changed := false
			for i, ff := range c.FFs {
				dmask[i] = mask[fiArr[fiIdx[ff]]]
			}
			for i, ff := range c.FFs {
				d := fiArr[fiIdx[ff]]
				// A flip-flop is carried once any lane reaches its D input,
				// even a lane its mask already holds: an FF that is itself
				// an error site has its seeded lane before it ever captures
				// anything, and may capture only that lane.
				if dmask[i] != 0 && ffSeen[ff] != int32(gi) {
					ffSeen[ff] = int32(gi)
					ffLocal[ff] = int32(len(g.ffIDs))
					g.ffIDs = append(g.ffIDs, ff)
					g.ffD = append(g.ffD, d)
					changed = true
				}
				if add := dmask[i] &^ mask[ff]; add != 0 {
					mask[ff] |= add
					changed = true
				}
			}

			// Frame `edge` sweep: the combinational cone of the currently
			// carried flip-flops, of which the frame keeps the injections
			// (in topological order, as the sweep visits them) and the
			// static counts.
			var fr mcFrame
			for i := range smask {
				smask[i] = 0
			}
			for _, ff := range g.ffIDs {
				smask[ff] = mask[ff]
			}
			for _, id := range topo {
				if kinds[id].IsGate() {
					mk := smask[id]
					for _, f := range fiArr[fiIdx[id]:fiIdx[id+1]] {
						mk |= smask[f]
					}
					smask[id] = mk
				}
				if mk := smask[id]; mk != 0 {
					if kinds[id] == logic.DFF {
						// Carried state enters the frame as an injection.
						fr.inj = append(fr.inj, mcInject{node: id, slot: ffLocal[id], lanes: mk})
					}
					fr.members++
					fr.laneSims += int64(bits.OnesCount64(mk))
				}
			}
			g.frames = append(g.frames, fr)
			if !changed {
				// Carried-lane fixpoint: every remaining frame sweeps the
				// same cone with the same masks.
				for len(g.frames) < frames {
					g.frames = append(g.frames, fr)
				}
				break
			}
		}

		// Finalize the capture masks to the closure fixpoint: lanes whose
		// divergence can ever reach each carried flip-flop.
		g.ffMask = make([]uint64, len(g.ffIDs))
		for j, ff := range g.ffIDs {
			g.ffMask[j] = mask[ff]
		}
		if len(g.ffIDs) > m.maxFFs {
			m.maxFFs = len(g.ffIDs)
		}
	}
	return m
}
