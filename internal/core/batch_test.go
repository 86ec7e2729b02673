package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sigprob"
)

// batchWidths are the lane counts the batched engine is cross-checked at:
// the degenerate scalar-equivalent width, small widths that force many
// partial batches, and the full mask width.
var batchWidths = []int{1, 4, 8, 64}

// TestBatchMatchesScalar is the batched engine's conformance suite: on
// random generated circuits, for every rule set and every batch width, the
// batched P_sensitized of every site must match the scalar Analyzer (the
// executable specification) to ≤ 1e-12, and the per-output states must
// match to the same tolerance. The only legitimate divergence between the
// two engines is floating-point product order when folding per-output miss
// probabilities, which is far below this bound.
func TestBatchMatchesScalar(t *testing.T) {
	rules := []RuleSet{RulesClosedForm, RulesPairwise, RulesNoPolarity}
	for seed := uint64(0); seed < 6; seed++ {
		c := gen.SmallRandomSequential(seed + 40)
		sp := sigprob.Topological(c, sigprob.Config{})
		for _, rs := range rules {
			scalar := MustNew(c, sp, Options{Rules: rs})
			want := make([]Result, c.N())
			for id := 0; id < c.N(); id++ {
				want[id] = scalar.EPP(netlist.ID(id))
			}
			for _, width := range batchWidths {
				eng := NewBatch(MustNew(c, sp, Options{Rules: rs}), width)
				got := make([]Result, c.N())
				sites := make([]netlist.ID, 0, width)
				for lo := 0; lo < c.N(); lo += width {
					hi := lo + width
					if hi > c.N() {
						hi = c.N()
					}
					sites = sites[:0]
					for id := lo; id < hi; id++ {
						sites = append(sites, netlist.ID(id))
					}
					eng.EPPBatch(sites, got[lo:hi])
				}
				for id := 0; id < c.N(); id++ {
					g, w := got[id], want[id]
					if d := math.Abs(g.PSensitized - w.PSensitized); d > 1e-12 {
						t.Fatalf("seed %d rules %v width %d site %d: batched %v, scalar %v (|d| = %g)",
							seed, rs, width, id, g.PSensitized, w.PSensitized, d)
					}
					if g.ConeSize != w.ConeSize {
						t.Fatalf("seed %d rules %v width %d site %d: cone size %d, scalar %d",
							seed, rs, width, id, g.ConeSize, w.ConeSize)
					}
					if len(g.Outputs) != len(w.Outputs) {
						t.Fatalf("seed %d rules %v width %d site %d: %d outputs, scalar %d",
							seed, rs, width, id, len(g.Outputs), len(w.Outputs))
					}
					// Both engines emit outputs in a valid topological
					// order, but within-level tie-breaking differs (single-
					// root vs multi-root DFS discovery), so match by node.
					wantState := make(map[netlist.ID]logic.Prob4, len(w.Outputs))
					for _, o := range w.Outputs {
						wantState[o.Output] = o.State
					}
					for i, o := range g.Outputs {
						ws, ok := wantState[o.Output]
						if !ok {
							t.Fatalf("seed %d rules %v width %d site %d output %d: node %d not in scalar outputs",
								seed, rs, width, id, i, o.Output)
						}
						for s := range o.State {
							if d := o.State[s] - ws[s]; math.Abs(d) > 1e-12 {
								t.Fatalf("seed %d rules %v width %d site %d output node %d: state %v, scalar %v",
									seed, rs, width, id, o.Output, o.State, ws)
							}
						}
					}
				}
			}
		}
	}
}

// sweepAll runs every node of eng's circuit through eng as the error site,
// packed eng.Width() sites per batch from order (nil = ascending node IDs),
// and returns one Result per node indexed by ID.
func sweepAll(eng *BatchAnalyzer, order []netlist.ID) []Result {
	n := eng.a.c.N()
	if order == nil {
		order = make([]netlist.ID, n)
		for id := range order {
			order[id] = netlist.ID(id)
		}
	}
	out := make([]Result, n)
	tmp := make([]Result, eng.Width())
	for lo := 0; lo < n; lo += eng.Width() {
		hi := min(lo+eng.Width(), n)
		eng.EPPBatch(order[lo:hi], tmp[:hi-lo])
		for _, r := range tmp[:hi-lo] {
			out[r.Site] = r
		}
	}
	return out
}

// TestBatchPSensitizedMatchesEPPBatch: the allocation-free P_sensitized
// entry point and the full-result entry point must agree exactly.
func TestBatchPSensitizedMatchesEPPBatch(t *testing.T) {
	c := gen.SmallRandomSequential(99)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	eng := a.Batch()
	order := a.Schedule().Order
	res := sweepAll(eng, order)
	tmp := make([]float64, eng.Width())
	for lo := 0; lo < c.N(); lo += eng.Width() {
		hi := min(lo+eng.Width(), c.N())
		eng.PSensitizedBatch(order[lo:hi], tmp[:hi-lo])
		for i, site := range order[lo:hi] {
			if tmp[i] != res[site].PSensitized {
				t.Fatalf("site %d: PSensitizedBatch %v, EPPBatch %v", site, tmp[i], res[site].PSensitized)
			}
		}
	}
}

// TestBatchPartialAndRepeatedBatches: a batch narrower than the width, and
// re-use of one engine across many batches, must not leak state between
// passes (epoch/stamp discipline).
func TestBatchPartialAndRepeatedBatches(t *testing.T) {
	c := gen.SmallRandomSequential(7)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	eng := NewBatch(a, 8)
	want := make([]float64, c.N())
	for id := 0; id < c.N(); id++ {
		want[id] = a.EPP(netlist.ID(id)).PSensitized
	}
	// Singleton batches through a width-8 engine, twice over (stale seeds
	// and masks from previous passes must be invisible).
	for pass := 0; pass < 2; pass++ {
		var out [1]float64
		for id := 0; id < c.N(); id++ {
			eng.PSensitizedBatch([]netlist.ID{netlist.ID(id)}, out[:])
			if d := math.Abs(out[0] - want[id]); d > 1e-12 {
				t.Fatalf("pass %d site %d: batched %v, scalar %v", pass, id, out[0], want[id])
			}
		}
	}
}

// TestBatchWidthClamp: constructor clamps out-of-range widths.
func TestBatchWidthClamp(t *testing.T) {
	c := gen.SmallRandomSequential(1)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	if w := NewBatch(a, 0).Width(); w != 1 {
		t.Errorf("width 0 clamped to %d, want 1", w)
	}
	if w := NewBatch(a, 1000).Width(); w != MaxBatchWidth {
		t.Errorf("width 1000 clamped to %d, want %d", w, MaxBatchWidth)
	}
}

// TestBatchPackingInvariance: the batched engine must produce bit-identical
// results for ANY site order and ANY packing of sites into batches — the
// property that lets the cone-locality scheduler reorder the all-sites
// sweep freely. Exercised for every rule set and the full width ladder,
// against the ascending-ID width-64 packing as the reference, with results
// additionally cross-checked against the scalar engine to 1e-12.
func TestBatchPackingInvariance(t *testing.T) {
	rules := []RuleSet{RulesClosedForm, RulesPairwise, RulesNoPolarity}
	for seed := uint64(0); seed < 3; seed++ {
		c := gen.SmallRandomSequential(seed + 70)
		sp := sigprob.Topological(c, sigprob.Config{})
		n := c.N()
		for _, rs := range rules {
			// Reference: ascending IDs, width 64.
			ref := make([]float64, n)
			refEng := NewBatch(MustNew(c, sp, Options{Rules: rs}), 64)
			sites := make([]netlist.ID, 0, 64)
			for lo := 0; lo < n; lo += 64 {
				hi := min(lo+64, n)
				sites = sites[:0]
				for id := lo; id < hi; id++ {
					sites = append(sites, netlist.ID(id))
				}
				refEng.PSensitizedBatch(sites, ref[lo:hi])
			}
			scalar := MustNew(c, sp, Options{Rules: rs})

			// Shuffled site orders at several widths, deterministic in seed.
			rng := rand.New(rand.NewPCG(seed, 1234))
			for _, width := range batchWidths {
				perm := rng.Perm(n)
				eng := NewBatch(MustNew(c, sp, Options{Rules: rs}), width)
				got := make([]float64, n)
				tmp := make([]float64, width)
				for lo := 0; lo < n; lo += width {
					hi := min(lo+width, n)
					sites = sites[:0]
					for _, p := range perm[lo:hi] {
						sites = append(sites, netlist.ID(p))
					}
					eng.PSensitizedBatch(sites, tmp[:hi-lo])
					for i, site := range sites {
						got[site] = tmp[i]
					}
				}
				for id := 0; id < n; id++ {
					if got[id] != ref[id] {
						t.Fatalf("seed %d rules %v width %d site %d: shuffled packing %v != reference %v (must be bit-identical)",
							seed, rs, width, id, got[id], ref[id])
					}
					if d := math.Abs(got[id] - scalar.EPP(netlist.ID(id)).PSensitized); d > 1e-12 {
						t.Fatalf("seed %d rules %v width %d site %d: |batch - scalar| = %g > 1e-12",
							seed, rs, width, id, d)
					}
				}
			}
		}
	}
}

// TestAllSitesUsesSchedule: an all-sites sweep packed from the
// cone-locality schedule indexes results by node ID, bit-equal to an
// ID-ordered sweep, and the engine's counters see every site.
func TestAllSitesUsesSchedule(t *testing.T) {
	c := gen.SmallRandomSequential(31)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	s := a.Schedule()
	if s.Len() != c.N() {
		t.Fatalf("schedule covers %d sites, want %d", s.Len(), c.N())
	}
	if s != a.Clone().Schedule() {
		t.Error("Clone does not share the schedule")
	}
	got := sweepAll(a.Batch(), s.Order)
	ref := sweepAll(NewBatch(MustNew(c, sp, Options{}), DefaultBatchWidth), nil)
	for id := range ref {
		if got[id].PSensitized != ref[id].PSensitized {
			t.Fatalf("site %d: scheduled sweep %v != ID-ordered sweep %v", id, got[id].PSensitized, ref[id].PSensitized)
		}
	}
	swept, nsites := a.Batch().Counters()
	if nsites != int64(c.N()) || swept <= 0 {
		t.Fatalf("counters = (%d swept, %d sites), want sites == %d", swept, nsites, c.N())
	}
	a.Batch().ResetCounters()
	if sw, si := a.Batch().Counters(); sw != 0 || si != 0 {
		t.Fatalf("ResetCounters left (%d, %d)", sw, si)
	}
}

// TestBatchEpochWraparound forces the uint32 epoch counter through its
// wraparound (epoch++ overflowing to 0 must invalidate all stamps rather
// than treat stale stamps as current) and checks results straddling the
// wrap are unchanged.
func TestBatchEpochWraparound(t *testing.T) {
	c := gen.SmallRandomSequential(3)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	eng := NewBatch(a, 8)
	want := make([]float64, c.N())
	for id := 0; id < c.N(); id++ {
		want[id] = a.EPP(netlist.ID(id)).PSensitized
	}
	check := func(tag string, descending bool) {
		t.Helper()
		var out [1]float64
		for i := 0; i < c.N(); i++ {
			id := i
			if descending {
				id = c.N() - 1 - i
			}
			eng.PSensitizedBatch([]netlist.ID{netlist.ID(id)}, out[:])
			if d := math.Abs(out[0] - want[id]); d > 1e-12 {
				t.Fatalf("%s: site %d: %v, want %v", tag, id, out[0], want[id])
			}
		}
	}
	check("pre-wrap", true)
	// Park the engine's cone walker two increments below overflow: the
	// second run() takes the epoch to ^uint32(0), the third wraps to 0 and
	// must invalidate both the walker's cone stamps and the seed stamps. The
	// descending pre-wrap pass left high-ID gates' seeds stamped with small
	// epochs, which the ascending straddle reaches again while those gates
	// sit, not yet re-swept, inside the cones of low-ID sites.
	parkEpoch(eng.walker, ^uint32(0)-2)
	check("straddling wrap", false)
	if eng.epoch >= ^uint32(0)-2 {
		t.Fatalf("epoch = %d, wraparound branch not exercised", eng.epoch)
	}
	check("post-wrap", false)
}

// parkEpoch sets a walker's membership epoch, which the graph package keeps
// unexported.
func parkEpoch(w *graph.Walker, epoch uint32) {
	f := reflect.ValueOf(w).Elem().FieldByName("epoch")
	*(*uint32)(unsafe.Pointer(f.UnsafeAddr())) = epoch
}
