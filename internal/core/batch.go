// Batched all-sites EPP kernel: core.BatchAnalyzer sweeps up to 64 error
// sites per union-cone pass with struct-of-arrays Prob4 lanes — the
// production kernel the epp-batch engine sweeps every site with.

package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// MaxBatchWidth is the largest number of error sites a BatchAnalyzer can
// process per pass: one lane per bit of the uint64 on-path masks.
const MaxBatchWidth = 64

// DefaultBatchWidth is the lane count of Analyzer.Batch at the zero
// Options.BatchWidth (the epp-batch engine's default). It
// trades cone-extraction amortization (wider is better: consecutive sites
// have heavily overlapping cones, and the width sweep in the benchmark
// suite is monotonically faster up to the mask limit on every ISCAS
// profile) against lane-state memory — 32 bytes per on-path node per lane,
// i.e. up to |union cone| × width × 32 B of reusable scratch per engine.
const DefaultBatchWidth = MaxBatchWidth

// BatchAnalyzer is the batched implementation of the all-sites EPP kernel.
// It processes up to Width error sites per sweep: one forward DFS extracts
// the union of the sites' cones, a per-node uint64 mask records which lanes
// (sites) each node is on-path for, and a single pass in topological order
// computes all lanes' four-valued states together. Per-lane state is stored
// struct-of-arrays (separate Pa/Pā/P0/P1 float64 arrays, lane-major within a
// node) so the inner loops touch contiguous memory.
//
// Compared with running the scalar Analyzer once per site this amortizes,
// across the whole batch: the cone DFS and topological sort, the fanin
// index and gate-kind loads, and the gate-rule dispatch. The 2-input
// AND/OR/NAND/NOR gates that dominate mapped netlists additionally take a
// branch-free closed-form path evaluated directly on the lane arrays.
//
// The scalar Analyzer.EPP remains the executable specification: for every
// site, the batched states are computed with the same rule arithmetic in
// the same fanin order, and agree with the scalar sweep to ≤ 1e-12 (the
// only divergence is floating-point product order when folding output
// misses, see TestBatchMatchesScalar).
//
// A BatchAnalyzer is not safe for concurrent use; create one per goroutine
// (the epp-batch engine's workers each own one, on an Analyzer Clone).
type BatchAnalyzer struct {
	a      *Analyzer
	stride int // configured lane count (batch width)

	// Union-cone extraction. stamp/epoch are the walker's membership
	// stamps of the current batch's union cone, refreshed every run and
	// read directly by the sweep's inner loops.
	walker  *graph.Walker
	members []netlist.ID // the current union cone, in level order
	stamp   []uint32
	epoch   uint32

	// Per-node scratch. seedStamp (under the walker's epoch) validates seed,
	// the lanes a node is the error site of; mask is valid for union members
	// after the node has been swept; pos is the node's dense index into the
	// lane arrays.
	mask      []uint64
	seed      []uint64
	pos       []int32
	seedStamp []uint32
	obs       []netlist.ID // observed union members, in sweep order

	// Struct-of-arrays lane state, indexed pos*stride + lane.
	pa, pab, p0, p1 []float64

	miss  []float64 // per-lane running ∏ (1 − PErr(output))
	csize []int32   // per-lane on-path signal count
	ins   []logic.Prob4

	// Cumulative work counters since construction (or ResetCounters): how
	// many union-cone nodes were swept and how many sites were analyzed.
	// sweptNodes/sitesSwept is the batching efficiency — with perfect cone
	// overlap it approaches |cone|/width per site; with disjoint cones it
	// equals the mean cone size. See Counters.
	sweptNodes int64
	sitesSwept int64
}

// NewBatch returns a batched engine over the same circuit, signal
// probabilities and rule set as a. width is clamped to [1, MaxBatchWidth].
func NewBatch(a *Analyzer, width int) *BatchAnalyzer {
	if width < 1 {
		width = 1
	}
	if width > MaxBatchWidth {
		width = MaxBatchWidth
	}
	n := a.c.N()
	return &BatchAnalyzer{
		a:         a,
		stride:    width,
		walker:    graph.NewWalker(a.c),
		mask:      make([]uint64, n),
		seed:      make([]uint64, n),
		pos:       make([]int32, n),
		seedStamp: make([]uint32, n),
		miss:      make([]float64, width),
		csize:     make([]int32, width),
		ins:       make([]logic.Prob4, 0, 8),
	}
}

// Width returns the configured batch width (lanes per pass).
func (b *BatchAnalyzer) Width() int { return b.stride }

// Counters returns the cumulative work counters: union-cone nodes swept and
// sites analyzed since construction (or the last ResetCounters). Their ratio
// is the batching efficiency the cone-locality scheduler optimizes — swept
// nodes per site, lower is better (the per-site minimum is the mean cone
// size divided by the batch width when cones overlap perfectly).
func (b *BatchAnalyzer) Counters() (sweptNodes, sites int64) {
	return b.sweptNodes, b.sitesSwept
}

// ResetCounters zeroes the work counters.
func (b *BatchAnalyzer) ResetCounters() {
	b.sweptNodes, b.sitesSwept = 0, 0
}

// Batch returns the Analyzer's batched engine (lazily created at the
// Options.BatchWidth lane count). Callers driving it (the epp-batch
// engine's workers, the multi-cycle analysis batching flip-flop sweeps)
// should use this rather than NewBatch so the O(N) scratch is shared and
// the configured width is honored. Like the
// Analyzer itself it is not safe for concurrent use.
func (a *Analyzer) Batch() *BatchAnalyzer {
	if a.batch == nil {
		w := a.opt.BatchWidth
		if w == 0 {
			w = DefaultBatchWidth
		}
		a.batch = NewBatch(a, w)
	}
	return a.batch
}

// PSensitizedBatch computes P_sensitized for up to Width error sites in one
// batched sweep, writing out[i] for sites[i]. len(out) must equal
// len(sites); sites must be valid node IDs. Performs no per-site heap
// allocation (scratch grows once to the largest union cone seen and is
// reused).
func (b *BatchAnalyzer) PSensitizedBatch(sites []netlist.ID, out []float64) {
	if len(sites) != len(out) {
		panic(fmt.Sprintf("core: PSensitizedBatch: %d sites, %d outputs", len(sites), len(out)))
	}
	if len(sites) == 0 {
		return
	}
	b.run(sites)
	for i := range sites {
		out[i] = 1 - b.miss[i]
	}
}

// EPPBatch runs the batched analysis for up to Width sites and writes one
// full Result (per-output states, cone size) per site into out.
func (b *BatchAnalyzer) EPPBatch(sites []netlist.ID, out []Result) {
	if len(sites) != len(out) {
		panic(fmt.Sprintf("core: EPPBatch: %d sites, %d results", len(sites), len(out)))
	}
	if len(sites) == 0 {
		return
	}
	b.run(sites)
	stride := b.stride
	for i, site := range sites {
		out[i] = Result{
			Site:        site,
			PSensitized: 1 - b.miss[i],
			ConeSize:    int(b.csize[i]),
		}
	}
	// Gather per-lane output states in ascending node-ID order (b.obs is
	// sorted after the sweep; see run).
	for _, id := range b.obs {
		base := int(b.pos[id]) * stride
		for mm := b.mask[id]; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			j := base + l
			st := logic.Prob4{
				logic.SymA:    b.pa[j],
				logic.SymABar: b.pab[j],
				logic.SymZero: b.p0[j],
				logic.SymOne:  b.p1[j],
			}
			out[l].Outputs = append(out[l].Outputs, OutputEPP{Output: id, State: st})
		}
	}
}

// run executes one batched pass: extract the union cone, seed the lanes,
// then sweep all lanes in a single pass.
func (b *BatchAnalyzer) run(sites []netlist.ID) {
	if len(sites) == 0 {
		return
	}
	if len(sites) > b.stride {
		panic(fmt.Sprintf("core: batch of %d sites exceeds width %d", len(sites), b.stride))
	}
	n := b.a.c.N()
	for _, site := range sites {
		if site < 0 || int(site) >= n {
			panic(fmt.Sprintf("core: batch: invalid site %d", site))
		}
	}
	b.members = b.walker.UnionCone(sites)
	b.stamp, b.epoch = b.walker.Stamps()
	if b.epoch == 1 { // fresh walker stamps: first pass or uint32 wraparound
		clear(b.seedStamp)
	}
	for lane, site := range sites {
		if b.seedStamp[site] != b.epoch {
			b.seedStamp[site] = b.epoch
			b.seed[site] = 0
		}
		b.seed[site] |= 1 << uint(lane)
	}

	// Size the lane arrays for this union cone.
	stride := b.stride
	if need := len(b.members) * stride; cap(b.pa) < need {
		b.pa = make([]float64, need)
		b.pab = make([]float64, need)
		b.p0 = make([]float64, need)
		b.p1 = make([]float64, need)
	}

	for i := 0; i < len(sites); i++ {
		b.miss[i] = 1
		b.csize[i] = 0
	}
	b.obs = b.obs[:0]

	b.sweepUnion()

	// Fold each lane's per-output miss product in ascending output-ID
	// order. The order is canonical — independent of which sites share the
	// batch and of the union sweep's within-level tie-breaking — which
	// makes every batched result bit-identical under any site packing (see
	// TestBatchPackingInvariance); lane states themselves are already
	// packing-invariant because a lane's arithmetic only ever reads its own
	// lane and off-path signal probabilities. The scalar engine folds in
	// the same canonical order (see Analyzer.EPP).
	slices.Sort(b.obs)
	for _, id := range b.obs {
		base := int(b.pos[id]) * stride
		for mm := b.mask[id]; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			j := base + l
			b.miss[l] *= 1 - (b.pa[j] + b.pab[j])
		}
	}
	b.sweptNodes += int64(len(b.members))
	b.sitesSwept += int64(len(sites))
}

// sweepUnion is the batched step 3: one pass over the union cone in
// topological order, computing every lane's state at every node.
func (b *BatchAnalyzer) sweepUnion() {
	a := b.a
	c := a.c
	kinds := a.kinds
	fiIdx, fiArr := a.fiIdx, a.fiArr
	stride := b.stride
	closed := a.opt.Rules != RulesPairwise
	fast := a.opt.Rules == RulesClosedForm

	for i, id := range b.members {
		b.pos[id] = int32(i)
		base := i * stride

		var m uint64
		if b.seedStamp[id] == b.epoch {
			m = b.seed[id]
		}
		sb := m // seed (error-site) lanes of this node
		kind := kinds[id]
		fs, fe := int(fiIdx[id]), int(fiIdx[id+1])
		if kind.IsGate() {
			for _, f := range fiArr[fs:fe] {
				if b.stamp[f] == b.epoch {
					m |= b.mask[f]
				}
			}
		}
		b.mask[id] = m

		// Error-site lanes hold the erroneous value with certainty.
		for mm := sb; mm != 0; mm &= mm - 1 {
			j := base + bits.TrailingZeros64(mm)
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = 1, 0, 0, 0
		}

		if compute := m &^ sb; compute != 0 {
			nf := fe - fs
			switch {
			case fast && nf == 2 && (kind == logic.And || kind == logic.Nand):
				b.and2Lanes(base, compute, fiArr[fs], fiArr[fs+1], kind == logic.Nand)
			case fast && nf == 2 && (kind == logic.Or || kind == logic.Nor):
				b.or2Lanes(base, compute, fiArr[fs], fiArr[fs+1], kind == logic.Nor)
			case fast && (kind == logic.And || kind == logic.Nand):
				b.andNLanes(base, compute, fiArr[fs:fe], kind == logic.Nand)
			case fast && (kind == logic.Or || kind == logic.Nor):
				b.orNLanes(base, compute, fiArr[fs:fe], kind == logic.Nor)
			case fast && (kind == logic.Buf || kind == logic.Not):
				b.unaryLanes(base, compute, fiArr[fs], kind == logic.Not)
			default:
				b.genericLanes(base, compute, kind, fiArr[fs:fe], closed)
			}
		}

		if c.IsObserved(id) && m != 0 {
			b.obs = append(b.obs, id) // miss folding happens post-sweep, in ID order
		}
		for mm := m; mm != 0; mm &= mm - 1 {
			b.csize[bits.TrailingZeros64(mm)]++
		}
	}
}

// laneIn loads fanin f's state for lane l: its on-path lane state if f is on
// path for l in this batch, the off-path signal-probability state otherwise.
func (b *BatchAnalyzer) laneIn(f netlist.ID, l int) (xa, xab, x0, x1 float64) {
	if b.stamp[f] == b.epoch && b.mask[f]>>uint(l)&1 == 1 {
		j := int(b.pos[f])*b.stride + l
		return b.pa[j], b.pab[j], b.p0[j], b.p1[j]
	}
	s := b.a.sp[f]
	return 0, 0, 1 - s, s
}

// and2Lanes is the branch-light closed-form path for 2-input AND/NAND: the
// fanin pair, their on-path flags and their off-path states are hoisted out
// of the lane loop, and the Table 1 AND rule is applied with exactly the
// arithmetic (and operation order) of the scalar andRule.
func (b *BatchAnalyzer) and2Lanes(base int, compute uint64, fx, fy netlist.ID, invert bool) {
	onX := b.stamp[fx] == b.epoch
	onY := b.stamp[fy] == b.epoch
	var mx, my uint64
	var bx, by int
	if onX {
		mx = b.mask[fx]
		bx = int(b.pos[fx]) * b.stride
	}
	if onY {
		my = b.mask[fy]
		by = int(b.pos[fy]) * b.stride
	}
	spx, spy := b.a.sp[fx], b.a.sp[fy]

	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		var xa, xab, x1 float64
		if mx>>uint(l)&1 == 1 {
			j := bx + l
			xa, xab, x1 = b.pa[j], b.pab[j], b.p1[j]
		} else {
			xa, xab, x1 = 0, 0, spx
		}
		var ya, yab, y1 float64
		if my>>uint(l)&1 == 1 {
			j := by + l
			ya, yab, y1 = b.pa[j], b.pab[j], b.p1[j]
		} else {
			ya, yab, y1 = 0, 0, spy
		}

		p1 := x1 * y1
		pa := (x1+xa)*(y1+ya) - p1
		pab := (x1+xab)*(y1+yab) - p1
		if pa < 0 {
			pa = 0
		}
		if pab < 0 {
			pab = 0
		}
		p0 := 1 - (p1 + pa + pab)
		if p0 < 0 {
			p0 = 0
		}
		j := base + l
		if invert {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pab, pa, p1, p0
		} else {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pa, pab, p0, p1
		}
	}
}

// or2Lanes is the dual of and2Lanes for 2-input OR/NOR (Table 1 OR rule).
func (b *BatchAnalyzer) or2Lanes(base int, compute uint64, fx, fy netlist.ID, invert bool) {
	onX := b.stamp[fx] == b.epoch
	onY := b.stamp[fy] == b.epoch
	var mx, my uint64
	var bx, by int
	if onX {
		mx = b.mask[fx]
		bx = int(b.pos[fx]) * b.stride
	}
	if onY {
		my = b.mask[fy]
		by = int(b.pos[fy]) * b.stride
	}
	spx, spy := b.a.sp[fx], b.a.sp[fy]

	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		var xa, xab, x0 float64
		if mx>>uint(l)&1 == 1 {
			j := bx + l
			xa, xab, x0 = b.pa[j], b.pab[j], b.p0[j]
		} else {
			xa, xab, x0 = 0, 0, 1-spx
		}
		var ya, yab, y0 float64
		if my>>uint(l)&1 == 1 {
			j := by + l
			ya, yab, y0 = b.pa[j], b.pab[j], b.p0[j]
		} else {
			ya, yab, y0 = 0, 0, 1-spy
		}

		p0 := x0 * y0
		pa := (x0+xa)*(y0+ya) - p0
		pab := (x0+xab)*(y0+yab) - p0
		if pa < 0 {
			pa = 0
		}
		if pab < 0 {
			pab = 0
		}
		p1 := 1 - (p0 + pa + pab)
		if p1 < 0 {
			p1 = 0
		}
		j := base + l
		if invert {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pab, pa, p1, p0
		} else {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pa, pab, p0, p1
		}
	}
}

// andNLanes applies the n-ary Table 1 AND rule per lane (same accumulation
// order as the scalar andRule: fanins in declaration order).
func (b *BatchAnalyzer) andNLanes(base int, compute uint64, fanin []netlist.ID, invert bool) {
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		p1, pa, pab := 1.0, 1.0, 1.0
		for _, f := range fanin {
			xa, xab, _, x1 := b.laneIn(f, l)
			p1 *= x1
			pa *= x1 + xa
			pab *= x1 + xab
		}
		pa -= p1
		pab -= p1
		if pa < 0 {
			pa = 0
		}
		if pab < 0 {
			pab = 0
		}
		p0 := 1 - (p1 + pa + pab)
		if p0 < 0 {
			p0 = 0
		}
		j := base + l
		if invert {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pab, pa, p1, p0
		} else {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pa, pab, p0, p1
		}
	}
}

// orNLanes applies the n-ary Table 1 OR rule per lane (dual of andNLanes).
func (b *BatchAnalyzer) orNLanes(base int, compute uint64, fanin []netlist.ID, invert bool) {
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		p0, pa, pab := 1.0, 1.0, 1.0
		for _, f := range fanin {
			xa, xab, x0, _ := b.laneIn(f, l)
			p0 *= x0
			pa *= x0 + xa
			pab *= x0 + xab
		}
		pa -= p0
		pab -= p0
		if pa < 0 {
			pa = 0
		}
		if pab < 0 {
			pab = 0
		}
		p1 := 1 - (p0 + pa + pab)
		if p1 < 0 {
			p1 = 0
		}
		j := base + l
		if invert {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pab, pa, p1, p0
		} else {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pa, pab, p0, p1
		}
	}
}

// unaryLanes handles BUF (copy) and NOT (polarity/constant swap) lanes.
func (b *BatchAnalyzer) unaryLanes(base int, compute uint64, f netlist.ID, invert bool) {
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		xa, xab, x0, x1 := b.laneIn(f, l)
		j := base + l
		if invert {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = xab, xa, x1, x0
		} else {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = xa, xab, x0, x1
		}
	}
}

// genericLanes is the fallback shared with the scalar sweep: gather fanin
// Prob4 states and apply the configured rule implementation. XOR/XNOR under
// every rule set, and all gates under RulesPairwise/RulesNoPolarity, take
// this path, so the batched engine inherits the scalar semantics exactly.
func (b *BatchAnalyzer) genericLanes(base int, compute uint64, kind logic.Kind, fanin []netlist.ID, closed bool) {
	noPol := b.a.opt.Rules == RulesNoPolarity
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		b.ins = b.ins[:0]
		for _, f := range fanin {
			xa, xab, x0, x1 := b.laneIn(f, l)
			b.ins = append(b.ins, logic.Prob4{
				logic.SymA:    xa,
				logic.SymABar: xab,
				logic.SymZero: x0,
				logic.SymOne:  x1,
			})
		}
		var st logic.Prob4
		if closed {
			st = closedForm(kind, b.ins)
		} else {
			st = logic.CombineN(kind, b.ins)
		}
		if noPol {
			st[logic.SymA] += st[logic.SymABar]
			st[logic.SymABar] = 0
		}
		j := base + l
		b.pa[j], b.pab[j], b.p0[j], b.p1[j] = st[logic.SymA], st[logic.SymABar], st[logic.SymZero], st[logic.SymOne]
	}
}
