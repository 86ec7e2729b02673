package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
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
// batched P_sensitized of every site and every per-output state must be
// bitwise equal to the scalar Analyzer's (the executable specification):
// both apply the same rule arithmetic in the same fanin order and fold the
// output misses in the same ascending output-ID order, and a skipped quiet
// lane holds exactly the bits the scalar sweep computes there.
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
				got := sweepAll(NewBatch(MustNew(c, sp, Options{Rules: rs}), width), nil)
				for id := range got {
					if d := diffResult(got[id], want[id]); d != "" {
						t.Fatalf("seed %d rules %v width %d site %d: %s", seed, rs, width, id, d)
					}
				}
			}
		}
	}
}

// diffResult describes the first difference between a batched and a scalar
// Result, or returns "" when they are bitwise equal: P_sensitized, cone
// size, and the outputs position by position — both engines list them in
// ascending node-ID order — with the state reaching each.
func diffResult(got, want Result) string {
	if math.Float64bits(got.PSensitized) != math.Float64bits(want.PSensitized) {
		return fmt.Sprintf("P_sensitized %v, scalar %v", got.PSensitized, want.PSensitized)
	}
	if got.ConeSize != want.ConeSize {
		return fmt.Sprintf("cone size %d, scalar %d", got.ConeSize, want.ConeSize)
	}
	if len(got.Outputs) != len(want.Outputs) {
		return fmt.Sprintf("%d outputs, scalar %d", len(got.Outputs), len(want.Outputs))
	}
	for i, o := range got.Outputs {
		w := want.Outputs[i]
		if o.Output != w.Output {
			return fmt.Sprintf("output %d is node %d, scalar node %d", i, o.Output, w.Output)
		}
		for s := range o.State {
			if math.Float64bits(o.State[s]) != math.Float64bits(w.State[s]) {
				return fmt.Sprintf("output node %d: state %v, scalar %v", o.Output, [4]float64(o.State), [4]float64(w.State))
			}
		}
	}
	return ""
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
// additionally cross-checked bitwise against the scalar engine.
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
					if w := scalar.EPP(netlist.ID(id)).PSensitized; math.Float64bits(got[id]) != math.Float64bits(w) {
						t.Fatalf("seed %d rules %v width %d site %d: batched %v, scalar %v (must be bit-identical)",
							seed, rs, width, id, got[id], w)
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

// TestBatchQuietLanes covers the quiet-lane skip at its edges, every case
// bitwise against the scalar Analyzer.EPP under every rule set, plus
// white-box checks of the live masks under the default closed-form rules.
func TestBatchQuietLanes(t *testing.T) {
	type quietCase struct {
		name  string
		build func(b *netlist.Builder)
		src   map[string]float64 // source probabilities (default 0.5)
		mcSP  bool               // Monte Carlo instead of topological SP
		sites []string
		check func(t *testing.T, c *netlist.Circuit, eng *BatchAnalyzer, res []Result)
	}
	cases := []quietCase{
		{
			// q is quiet in a's lane (the constant masks a) and its OR rule
			// has the off-path fixed point, so the lane is skipped there.
			// r = NAND(q, c) has no live fanin but no fixed point either:
			// SP(r) = 1 − 0.15, and 1 − (1 − 0.15) ≠ 0.15, so its lane must
			// still be evaluated — it stores P0 = 0.15, which differs from
			// the off-path P0, and the OR at y reads exactly that.
			name: "nand-without-fixed-point",
			build: func(b *netlist.Builder) {
				a, bb, c := b.Input("a"), b.Input("b"), b.Input("c")
				m := b.And("m", a, b.Const("z", false))
				q := b.Or("q", m, bb)
				r := b.Nand("r", q, c)
				b.MarkOutput(b.Or("y", r, a))
			},
			src:   map[string]float64{"c": 0.3},
			sites: []string{"a"},
			check: func(t *testing.T, c *netlist.Circuit, eng *BatchAnalyzer, res []Result) {
				q, r := c.ByName("q"), c.ByName("r")
				if !eng.fixed[q] || eng.fixed[r] {
					t.Fatalf("fixed(q, r) = (%v, %v), want (true, false)", eng.fixed[q], eng.fixed[r])
				}
				if eng.live[q]&1 != 0 || eng.live[r]&1 == 0 {
					t.Errorf("live bits (q, r) = (%d, %d), want (0, 1)", eng.live[q]&1, eng.live[r]&1)
				}
				if pa := res[0].Outputs[0].State[logic.SymA]; pa != 0.15 {
					t.Errorf("Pa(y) = %v, want 0.15 (read through r's evaluated P0)", pa)
				}
			},
		},
		{
			// a XOR NOT(a) is constantly 1, so under Monte Carlo SP the XOR's
			// lane converges back to its off-path state: quiet again, and g
			// (whose AND rule has the fixed point) skips the lane.
			name: "xor-reconvergence",
			build: func(b *netlist.Builder) {
				a, c := b.Input("a"), b.Input("c")
				x := b.Xor("x", a, b.Not("n", a))
				b.MarkOutput(b.And("g", x, c))
				b.MarkOutput(b.And("h", a, c))
			},
			mcSP:  true,
			sites: []string{"a"},
			check: func(t *testing.T, c *netlist.Circuit, eng *BatchAnalyzer, res []Result) {
				x, g := c.ByName("x"), c.ByName("g")
				if eng.mask[x]&1 == 0 || eng.live[x]&1 != 0 {
					t.Errorf("x: on-path %d live %d, want on-path and quiet", eng.mask[x]&1, eng.live[x]&1)
				}
				if !eng.fixed[g] || eng.live[g]&1 != 0 {
					t.Errorf("g: fixed %v live %d, want a skipped quiet lane", eng.fixed[g], eng.live[g]&1)
				}
				if sims, evals := eng.LaneCounters(); evals >= sims {
					t.Errorf("lane counters %d evaluated of %d on path, want a skip", evals, sims)
				}
			},
		},
		{
			// A constant-0 AND input masks the error: m's lane is quiet and
			// the observed y downstream never carries it.
			name: "constant-masking",
			build: func(b *netlist.Builder) {
				a, bb := b.Input("a"), b.Input("b")
				m := b.And("m", a, b.Const("z", false))
				b.MarkOutput(b.Or("y", m, bb))
			},
			sites: []string{"a"},
			check: func(t *testing.T, c *netlist.Circuit, eng *BatchAnalyzer, res []Result) {
				if m := c.ByName("m"); eng.mask[m]&1 == 0 || eng.live[m]&1 != 0 {
					t.Errorf("m: on-path %d live %d, want on-path and quiet", eng.mask[m]&1, eng.live[m]&1)
				}
				if res[0].PSensitized != 0 {
					t.Errorf("P_sensitized(a) = %v, want 0", res[0].PSensitized)
				}
			},
		},
		{
			// Every lane of the observed y is quiet: EPPBatch still lists y
			// for both sites, with its off-path state, and the cone sizes
			// keep counting the static on-path signals.
			name: "observed-output-all-quiet",
			build: func(b *netlist.Builder) {
				a, bb, c := b.Input("a"), b.Input("b"), b.Input("c")
				m := b.And("m", a, bb, b.Const("z", false))
				b.MarkOutput(b.Or("y", m, c))
			},
			src:   map[string]float64{"c": 0.3},
			sites: []string{"a", "b"},
			check: func(t *testing.T, c *netlist.Circuit, eng *BatchAnalyzer, res []Result) {
				y := c.ByName("y")
				if eng.mask[y] != 0b11 || eng.live[y] != 0 {
					t.Errorf("y: on-path %b live %b, want 11 and 0", eng.mask[y], eng.live[y])
				}
				for _, r := range res {
					if r.ConeSize != 3 || len(r.Outputs) != 1 || r.Outputs[0].Output != y ||
						r.Outputs[0].State != logic.FromSP(eng.a.sp[y]) {
						t.Errorf("site %d: cone %d outputs %v, want cone 3 and y at its off-path state",
							r.Site, r.ConeSize, r.Outputs)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nb := netlist.NewBuilder(tc.name)
			tc.build(nb)
			c, err := nb.Build()
			if err != nil {
				t.Fatal(err)
			}
			src := make([]float64, c.N())
			for id := range src {
				src[id] = 0.5
			}
			for name, p := range tc.src {
				src[c.ByName(name)] = p
			}
			cfg := sigprob.Config{SourceProb: src, Vectors: 1024, Seed: 1}
			sp := sigprob.Topological(c, cfg)
			if tc.mcSP {
				sp = sigprob.MonteCarlo(c, cfg)
			}
			sites := make([]netlist.ID, len(tc.sites))
			for i, name := range tc.sites {
				sites[i] = c.ByName(name)
			}
			for _, rs := range []RuleSet{RulesClosedForm, RulesPairwise, RulesNoPolarity} {
				scalar := MustNew(c, sp, Options{Rules: rs})
				eng := NewBatch(MustNew(c, sp, Options{Rules: rs}), MaxBatchWidth)
				res := make([]Result, len(sites))
				eng.EPPBatch(sites, res)
				for i, site := range sites {
					if d := diffResult(res[i], scalar.EPP(site)); d != "" {
						t.Fatalf("rules %v site %s: %s", rs, tc.sites[i], d)
					}
				}
				if rs == RulesClosedForm {
					tc.check(t, c, eng, res)
				}
			}
		})
	}
}

// TestBatchLiveMaskExact pins the live mask itself, which the bit-level
// cross-checks cannot see: a lane wrongly marked live is only evaluated
// needlessly. For every batch, union member and on-path lane, the live bit
// must be set exactly when the scalar sweep's state at that node differs
// bitwise from the off-path state FromSP(sp), under every rule set and with
// topological and Monte Carlo signal probabilities.
func TestBatchLiveMaskExact(t *testing.T) {
	circuits := []*netlist.Circuit{gen.SmallRandomSequential(40), gen.SmallRandomSequential(41)}
	s953, err := gen.ByName("s953")
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, s953)
	for _, c := range circuits {
		cfg := sigprob.Config{Vectors: 1024, Seed: 1}
		sps := map[string][]float64{"topological": sigprob.Topological(c, cfg), "monte-carlo": sigprob.MonteCarlo(c, cfg)}
		for spName, sp := range sps {
			for _, rs := range []RuleSet{RulesClosedForm, RulesPairwise, RulesNoPolarity} {
				scalar := MustNew(c, sp, Options{Rules: rs})
				eng := NewBatch(MustNew(c, sp, Options{Rules: rs}), MaxBatchWidth)
				sites := make([]netlist.ID, 0, MaxBatchWidth)
				out := make([]float64, MaxBatchWidth)
				for lo := 0; lo < c.N(); lo += MaxBatchWidth {
					sites = sites[:0]
					for id := lo; id < min(lo+MaxBatchWidth, c.N()); id++ {
						sites = append(sites, netlist.ID(id))
					}
					eng.PSensitizedBatch(sites, out[:len(sites)])
					if d := liveMaskDiff(scalar, eng, sites); d != "" {
						t.Fatalf("%s %s rules %v: %s", c.Name, spName, rs, d)
					}
				}
			}
		}
	}
}

// liveMaskDiff describes the first union member and on-path lane of eng's
// last batch, sites, whose live bit disagrees with the scalar sweep — set
// exactly when the scalar state there differs bitwise from the off-path
// state FromSP(sp) — or returns "" when every live bit matches.
func liveMaskDiff(scalar *Analyzer, eng *BatchAnalyzer, sites []netlist.ID) string {
	c := scalar.c
	for l, site := range sites {
		scalar.EPP(site)
		for _, id := range eng.members {
			if eng.mask[id]>>uint(l)&1 == 0 {
				continue
			}
			st, ok := scalar.StateOf(id)
			if !ok {
				return fmt.Sprintf("site %d: node %d on path but outside the scalar cone", site, id)
			}
			off := logic.FromSP(scalar.sp[id])
			want := differs(st[logic.SymA], st[logic.SymABar], st[logic.SymZero], st[logic.SymOne],
				math.Float64bits(off[logic.SymZero]), math.Float64bits(off[logic.SymOne]))
			if got := eng.live[id]>>uint(l)&1 == 1; got != want {
				return fmt.Sprintf("site %d node %d (%v): live %v, scalar state %v vs off-path %v",
					site, id, c.KindOf(id), got, [4]float64(st), [4]float64(off))
			}
		}
	}
	return ""
}

// TestBatchLaneEvalShare pins the quiet-lane skip on the s9234 profile: an
// all-sites sweep with topological SP evaluates exactly 7,142,394 of the
// 12,081,088 non-seed on-path gate lanes (share 0.5912). The counts are a
// pure function of the live masks, so any kernel change that keeps the
// bits and the live masks keeps them.
func TestBatchLaneEvalShare(t *testing.T) {
	c, err := gen.ByName("s9234")
	if err != nil {
		t.Fatal(err)
	}
	a := MustNew(c, sigprob.Topological(c, sigprob.Config{}), Options{})
	eng := a.Batch()
	sweepAll(eng, a.Schedule().Order)
	onPath, evaluated := eng.LaneCounters()
	share := float64(evaluated) / float64(onPath)
	t.Logf("s9234: %d of %d on-path lanes evaluated (%.4f)", evaluated, onPath, share)
	if onPath != 12081088 || evaluated != 7142394 {
		t.Errorf("lane counters (on path, evaluated) = (%d, %d), want (12081088, 7142394)", onPath, evaluated)
	}
	eng.ResetCounters()
	if p, e := eng.LaneCounters(); p != 0 || e != 0 {
		t.Errorf("ResetCounters left lane counters (%d, %d)", p, e)
	}
}

// TestBatchLaneSlots pins the lane-slot peak of an all-sites s9234 sweep at
// width 64 with topological SP: a slot lives only until the last in-cone
// consumer of its node has been swept, so at most 881 of the 5,844 nodes
// hold one at once (the largest union cone has 5,579 members). The lane
// arrays must stay within a quarter of the N × 64 lanes a slot per node
// would take.
func TestBatchLaneSlots(t *testing.T) {
	c, err := gen.ByName("s9234")
	if err != nil {
		t.Fatal(err)
	}
	a := MustNew(c, sigprob.Topological(c, sigprob.Config{}), Options{})
	eng := a.Batch()
	if eng.Width() != 64 {
		t.Fatalf("default width %d, want 64", eng.Width())
	}
	sweepAll(eng, a.Schedule().Order)
	slots := len(eng.pa) / eng.Width()
	t.Logf("s9234: peak %d live slots, lane arrays hold %d slots, N = %d", eng.PeakSlots(), slots, c.N())
	if eng.PeakSlots() != 881 {
		t.Errorf("PeakSlots = %d, want 881", eng.PeakSlots())
	}
	if slots > c.N()/4 {
		t.Errorf("lane arrays hold %d slots, want at most N/4 = %d", slots, c.N()/4)
	}
	if slots < eng.PeakSlots() || slots >= 2*eng.PeakSlots() {
		t.Errorf("lane arrays hold %d slots for a peak of %d, want [peak, 2·peak)", slots, eng.PeakSlots())
	}
	for _, p := range [][]float64{eng.pab, eng.p0, eng.p1} {
		if len(p) != len(eng.pa) {
			t.Fatalf("lane arrays of lengths %d and %d", len(p), len(eng.pa))
		}
	}
}

// TestBatchLanesGrowMidSweep: every batch must stay bitwise equal to the
// scalar sweep when the lane arrays grow while a pass is under way, live
// slots holding states that the growth has to carry over. Sites go in
// ascending cone size, so later batches need more slots than any before
// them and the arrays of a warmed-up engine grow mid-sweep too.
func TestBatchLanesGrowMidSweep(t *testing.T) {
	for _, name := range []string{"s953", "s1196"} {
		c, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sp := sigprob.Topological(c, sigprob.Config{})
		for _, rs := range []RuleSet{RulesClosedForm, RulesPairwise} {
			scalar := MustNew(c, sp, Options{Rules: rs})
			want := make([]Result, c.N())
			order := make([]netlist.ID, c.N())
			for id := range want {
				want[id] = scalar.EPP(netlist.ID(id))
				order[id] = netlist.ID(id)
			}
			slices.SortStableFunc(order, func(x, y netlist.ID) int { return want[x].ConeSize - want[y].ConeSize })
			for _, width := range []int{1, 7, 64} {
				eng := NewBatch(MustNew(c, sp, Options{Rules: rs}), width)
				out := make([]Result, width)
				warmGrowths := 0
				for lo := 0; lo < c.N(); lo += width {
					sites := order[lo:min(lo+width, c.N())]
					before := len(eng.pa)
					eng.EPPBatch(sites, out[:len(sites)])
					if before > 0 && len(eng.pa) > before {
						warmGrowths++
					}
					for i, r := range out[:len(sites)] {
						if d := diffResult(r, want[sites[i]]); d != "" {
							t.Fatalf("%s rules %v width %d site %d: %s", c.Name, rs, width, sites[i], d)
						}
					}
				}
				if warmGrowths == 0 {
					t.Errorf("%s rules %v width %d: the lane arrays never grew after the first pass", c.Name, rs, width)
				}
			}
		}
	}
}
