// Package sched implements the site scheduler of the batched EPP kernel: it
// orders error sites by cone locality so that sites packed into one batch
// (one lane word, at most 64 sites) share most of their union cone.
//
// The batched EPP kernel (core.BatchAnalyzer) sweeps the union of its sites'
// forward cones once per batch, propagating four-valued probability states
// through it, so the work per batch is proportional to |union cone|, not to
// the sum of the individual cone sizes. Packing sites whose cones overlap
// therefore reduces swept nodes per site directly. The heuristic is cheap
// and global: every node gets a 64-bit reachable-observation signature from
// one reverse CSR sweep (netlist.Circuit.ObsSignatures), and sites are
// sorted by (combinational level, signature, ID). Level-major order keeps a
// batch's union-cone members dense in the per-node scratch arrays, and the
// signature tie-break clusters sites feeding the same outputs, whose cones
// converge; on netlists whose node IDs do not already follow level order
// (anything parsed from a real .bench file) this also restores the locality
// that consecutive-ID packing only gets by accident.
//
// A Schedule is a pure reordering: it never changes which sites are
// analyzed or how, only which sites share a batch and in what sequence
// batches are claimed. The batched EPP kernel is packing-invariant by
// construction (per-lane arithmetic never reads companion lanes, and the
// per-output miss product is folded in canonical output-ID order), so
// routing a sweep through a Schedule changes no result bits. Schedules
// are immutable after construction and safe for concurrent use by any
// number of workers.
package sched

import (
	"sort"

	"repro/internal/netlist"
)

// Schedule is an ordering of all circuit nodes for an all-sites sweep.
// Order lists every node ID exactly once; batch k at width w is
// Order[k*w : min((k+1)*w, len(Order))].
type Schedule struct {
	Order []netlist.ID
}

// Len returns the number of scheduled sites (the circuit's node count).
func (s *Schedule) Len() int { return len(s.Order) }

// ConeLocality returns the cone-locality schedule of circuit c: all node
// IDs sorted by (combinational level, reachable-observation signature, ID).
// Within a level, sites that feed the same outputs — equal signatures,
// hence strongly overlapping cones — are packed into the same batches. The
// schedule depends only on the circuit structure and is fully
// deterministic.
func ConeLocality(c *netlist.Circuit) *Schedule {
	n := c.N()
	sig := c.ObsSignatures()
	levels := c.Levels()
	order := make([]netlist.ID, n)
	for i := range order {
		order[i] = netlist.ID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if levels[x] != levels[y] {
			return levels[x] < levels[y]
		}
		if sig[x] != sig[y] {
			return sig[x] < sig[y]
		}
		return x < y
	})
	return &Schedule{Order: order}
}
