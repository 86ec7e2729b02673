// Batched all-sites EPP kernel: core.BatchAnalyzer sweeps up to 64 error
// sites per union-cone pass with struct-of-arrays Prob4 lanes, evaluating a
// lane only where its error effect can still differ from the off-path state
// — the production kernel the epp-batch engine sweeps every site with. One
// closed-form lane kernel per arity serves AND, NAND, OR and NOR.

package core

import (
	"fmt"
	"math"
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
// profile) against lane-state memory — 32 bytes per lane of every live
// lane slot. A slot lives from the moment the sweep reaches its node until
// the node's last in-cone consumer has been swept (observed nodes keep
// theirs to the end of the pass), so an engine's lane arrays hold the peak
// number of live slots × width × 32 B: 2.1 MB on s9234 at width 64, where
// at most 881 of its 5,844 nodes hold a slot at once.
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
// index, gate-kind and signal-probability loads (hoisted once per node,
// not per lane), and the gate-rule dispatch. The AND/OR/NAND/NOR gates
// that dominate mapped netlists additionally take a closed-form path
// evaluated directly on the lane arrays: one 2-input and one N-input
// kernel, each running the AND rule over the fanins' non-controlling field
// (OR is AND with 0 and 1 exchanged).
//
// Most on-path lanes carry no error at all: the error was masked upstream
// and the lane's state is bitwise the off-path state FromSP(sp). A lane is
// live at a node when its state differs from that; a per-node live mask
// records which lanes are, and fanins are read through it (a quiet lane
// reads its signal probability, which is the same bits). Where the node's
// rule maps off-path fanins to its own off-path state bitwise (see
// offPathFixed), lanes with no live fanin are not evaluated at all — the
// concurrent fault-simulation idea (Ulrich & Baker, 1974) applied to
// probability states. Only live lanes enter the miss product: a quiet
// output's factor is exactly 1. ConeSize, the Outputs list and the swept
// node counter keep the static on-path meaning.
//
// The scalar Analyzer.EPP remains the executable specification: for every
// site, the batched states are computed with the same rule arithmetic in
// the same fanin order and the misses are folded in the same ascending
// output-ID order, so P_sensitized and every output state are bitwise
// equal to the scalar sweep's (see TestBatchMatchesScalar).
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
	// the lanes a node is the error site of; mask (the static on-path lanes)
	// and live (the on-path lanes whose state differs bitwise from
	// FromSP(sp), always including the seed lanes) are valid for union
	// members after the node has been swept; pos is the node's lane slot
	// while the slot is live (see sweepUnion), and refs the number of its
	// in-cone gate consumers still to be swept.
	mask      []uint64
	live      []uint64
	seed      []uint64
	pos       []int32
	refs      []int32
	seedStamp []uint32
	fixed     []bool       // the Analyzer's offPathFixed flags
	uses      []int32      // the Analyzer's gateUses counts
	obs       []netlist.ID // observed union members, in sweep order

	// Struct-of-arrays lane state, indexed slot*stride + lane. A slot is
	// handed out when the sweep reaches a member and goes back to free once
	// the member's last in-cone consumer has been swept, so the arrays grow
	// geometrically to the peak number of live slots, not to N × stride.
	// Only live lanes' entries are meaningful.
	pa, pab, p0, p1 []float64
	free            []int32 // released slots, reused before new ones
	peakSlots       int     // most slots live at once in any pass

	miss []float64     // per-lane running ∏ (1 − PErr(output))
	fin  []faninLanes  // the swept node's hoisted fanins
	ins  []logic.Prob4 // genericLanes' rule input scratch

	// Cumulative work counters since construction (or ResetCounters): how
	// many union-cone nodes were swept and how many sites were analyzed.
	// sweptNodes/sitesSwept is the batching efficiency — with perfect cone
	// overlap it approaches |cone|/width per site; with disjoint cones it
	// equals the mean cone size. See Counters. laneSims counts the non-seed
	// on-path lanes at gates, laneEvals those actually evaluated; see
	// LaneCounters.
	sweptNodes int64
	sitesSwept int64
	laneSims   int64
	laneEvals  int64
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
		live:      make([]uint64, n),
		seed:      make([]uint64, n),
		pos:       make([]int32, n),
		refs:      make([]int32, n),
		seedStamp: make([]uint32, n),
		fixed:     a.offPathFixed(),
		uses:      a.gateUses(),
		miss:      make([]float64, width),
		fin:       make([]faninLanes, 0, 8),
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

// LaneCounters returns the cumulative lane counters since construction (or
// the last ResetCounters): onPath is the number of non-seed on-path lanes
// at gates — what a sweep without quiet-lane skipping evaluates — and
// evaluated how many of them the sweep actually evaluated. Their ratio is
// the share of lane work the skip leaves.
func (b *BatchAnalyzer) LaneCounters() (onPath, evaluated int64) {
	return b.laneSims, b.laneEvals
}

// PeakSlots returns the largest number of lane slots — one per union-cone
// member, Width lanes each — that were live at once in any pass since
// construction. The lane arrays hold at least that many slots and less than
// twice as many. ResetCounters leaves it alone.
func (b *BatchAnalyzer) PeakSlots() int { return b.peakSlots }

// ResetCounters zeroes the work and lane counters.
func (b *BatchAnalyzer) ResetCounters() {
	b.sweptNodes, b.sitesSwept = 0, 0
	b.laneSims, b.laneEvals = 0, 0
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
// len(sites); sites must be valid node IDs. Allocates only while the lane
// arrays and the slot free list still grow to the largest pass seen, so a
// warmed-up engine sweeps allocation-free.
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
// full Result (per-output states, cone size) per site into out. Every
// statically reachable output is listed; a quiet one carries its off-path
// state FromSP(sp), bitwise what the scalar sweep computes there.
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
		out[i] = Result{Site: site, PSensitized: 1 - b.miss[i]}
	}
	// Each lane's cone size is its static on-path signal count, tallied
	// here because PSensitizedBatch has no use for it.
	for _, id := range b.members {
		for mm := b.mask[id]; mm != 0; mm &= mm - 1 {
			out[bits.TrailingZeros64(mm)].ConeSize++
		}
	}
	// Gather per-lane output states in ascending node-ID order (b.obs is
	// sorted after the sweep; see run).
	for _, id := range b.obs {
		base := int(b.pos[id]) * stride
		live := b.live[id]
		for mm := b.mask[id]; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			st := logic.FromSP(b.a.sp[id])
			if live>>uint(l)&1 == 1 {
				j := base + l
				st = logic.Prob4{
					logic.SymA:    b.pa[j],
					logic.SymABar: b.pab[j],
					logic.SymZero: b.p0[j],
					logic.SymOne:  b.p1[j],
				}
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

	stride := b.stride
	for i := 0; i < len(sites); i++ {
		b.miss[i] = 1
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
	// the same canonical order (see Analyzer.EPP). Quiet lanes are skipped:
	// their factor 1 − (+0 + +0) is exactly 1.
	slices.Sort(b.obs)
	for _, id := range b.obs {
		base := int(b.pos[id]) * stride
		for mm := b.live[id]; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			j := base + l
			b.miss[l] *= 1 - (b.pa[j] + b.pab[j])
		}
	}
	b.sweptNodes += int64(len(b.members))
	b.sitesSwept += int64(len(sites))
}

// sweepUnion is the batched step 3: one pass over the union cone in
// topological order. Every node's static on-path mask is computed, but a
// lane is evaluated only where it can differ from the off-path state: at a
// node whose rule has the off-path fixed point (see offPathFixed), lanes
// without a live fanin are skipped — they would compute FromSP(sp) exactly.
//
// A member's lane state is read only by its in-cone gate consumers, which
// the level order sweeps after it, and, if it is observed, by the miss fold
// and output gather after the sweep. So a member takes a lane slot when the
// sweep reaches it, and an unobserved member releases the slot once its last
// consumer has been swept (at once if it has none); released slots are
// reused before new ones. A member's consumer count is its static number of
// gate uses (gateUses), a duplicated fanin counting once per edge.
func (b *BatchAnalyzer) sweepUnion() {
	a := b.a
	c := a.c
	kinds := a.kinds
	fiIdx, fiArr := a.fiIdx, a.fiArr
	sp := a.sp
	stride := b.stride
	fast := a.opt.Rules == RulesClosedForm

	b.free = b.free[:0]
	slots := 0 // slots handed out this pass: the peak live count
	for _, id := range b.members {
		var slot int32
		if k := len(b.free) - 1; k >= 0 {
			slot, b.free = b.free[k], b.free[:k]
		} else {
			slot = int32(slots)
			slots++
			if slots*stride > len(b.pa) {
				b.growLanes(slots * stride)
			}
		}
		b.pos[id] = slot
		b.refs[id] = b.uses[id] // before any consumer: fanins come first
		base := int(slot) * stride

		var m uint64
		if b.seedStamp[id] == b.epoch {
			m = b.seed[id]
		}
		sb := m // seed (error-site) lanes of this node
		kind := kinds[id]
		// Hoist the fanins once per node: the static on-path lanes go into
		// m, the lanes some fanin is live in into hot.
		var hot uint64
		fin := b.fin[:0]
		andOr := fast && (kind == logic.And || kind == logic.Nand || kind == logic.Or || kind == logic.Nor)
		or := kind == logic.Or || kind == logic.Nor
		if kind.IsGate() {
			for _, f := range fiArr[fiIdx[id]:fiIdx[id+1]] {
				in := faninLanes{p0: 1 - sp[f], p1: sp[f]}
				in.nc = in.p1
				if or {
					in.nc = in.p0
				}
				if b.stamp[f] == b.epoch {
					m |= b.mask[f]
					in.live = b.live[f]
					in.base = int(b.pos[f]) * stride
					hot |= in.live
					// This node is f's consumer: release f's slot after
					// its last one. Nothing takes a slot before the next
					// member, so f's lanes stay intact for the kernels below.
					if b.refs[f]--; b.refs[f] == 0 && !c.IsObserved(f) {
						b.free = append(b.free, b.pos[f])
					}
				}
				fin = append(fin, in)
			}
		}
		b.fin = fin
		b.mask[id] = m

		// Error-site lanes hold the erroneous value with certainty.
		for mm := sb; mm != 0; mm &= mm - 1 {
			j := base + bits.TrailingZeros64(mm)
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = 1, 0, 0, 0
		}

		live := sb
		if compute := m &^ sb; compute != 0 {
			b.laneSims += int64(bits.OnesCount64(compute))
			if b.fixed[id] {
				compute &= hot
			}
			if compute != 0 {
				b.laneEvals += int64(bits.OnesCount64(compute))
				z0, z1 := math.Float64bits(1-sp[id]), math.Float64bits(sp[id])
				switch {
				case andOr:
					d := b.andOrView(or, kind.Inverting(), z0, z1)
					if len(fin) == 2 {
						live |= b.andOr2Lanes(base, compute, &fin[0], &fin[1], &d)
					} else {
						live |= b.andOrNLanes(base, compute, fin, &d)
					}
				case fast && (kind == logic.Buf || kind == logic.Not):
					live |= b.unaryLanes(base, compute, &fin[0], z0, z1, kind == logic.Not)
				default:
					live |= b.genericLanes(base, compute, kind, fin, z0, z1)
				}
			}
		}
		b.live[id] = live

		if c.IsObserved(id) {
			if m != 0 {
				b.obs = append(b.obs, id) // miss folding happens post-sweep, in ID order
			}
		} else if b.refs[id] == 0 {
			b.free = append(b.free, slot) // no consumer in the cone
		}
	}
	b.peakSlots = max(b.peakSlots, slots)
}

// growLanes grows the lane arrays to hold at least n entries, doubling them
// at least, and keeps the live slots' states.
func (b *BatchAnalyzer) growLanes(n int) {
	n = max(n, 2*len(b.pa))
	grow := func(p []float64) []float64 {
		g := make([]float64, n)
		copy(g, p)
		return g
	}
	b.pa, b.pab, b.p0, b.p1 = grow(b.pa), grow(b.pab), grow(b.p0), grow(b.p1)
}

// faninLanes is one fanin of the node being swept, hoisted out of the lane
// loops: the lanes it is live in (0 when it is off the union cone), its
// base index into the lane arrays, its off-path state's P0 and P1, and of
// those the swept gate's non-controlling value (P0 for OR/NOR, else P1).
type faninLanes struct {
	live       uint64
	base       int
	p0, p1, nc float64
}

// read returns fanin in's state in lane l: the stored lane state where the
// fanin is live, its off-path state otherwise — which is bitwise the state
// a quiet on-path lane holds.
func (b *BatchAnalyzer) read(in *faninLanes, l int) (xa, xab, x0, x1 float64) {
	if in.live>>uint(l)&1 == 1 {
		j := in.base + l
		return b.pa[j], b.pab[j], b.p0[j], b.p1[j]
	}
	return 0, 0, in.p0, in.p1
}

// differs reports whether a lane state differs bitwise from the off-path
// state (+0, +0, P0, P1) whose P0/P1 bit patterns are z0/z1, i.e. whether
// the lane is live. A −0 error mass counts as live.
func differs(pa, pab, p0, p1 float64, z0, z1 uint64) bool {
	return math.Float64bits(pa)|math.Float64bits(pab)|(math.Float64bits(p0)^z0)|(math.Float64bits(p1)^z1) != 0
}

// The lane kernels below evaluate the compute lanes of one node at base,
// store each lane's state and return the lanes whose state differs from
// the node's off-path state, whose P0/P1 bits are z0/z1.
//
// The two closed-form kernels, one 2-input and one N-input, serve AND,
// NAND, OR and NOR alike. Table 1's OR rule is its AND rule with the roles
// of 0 and 1 exchanged, so both run the AND arithmetic over the fanins'
// non-controlling field (P1 for AND, P0 for OR); only where the results go
// differs (see andOrView). The operations and their order, pa paired with
// xa, are exactly the scalar andRule's or orRule's, so the bits match; OR
// as NOT∘AND∘NOT would sum the remainder as (prod + pab) + pa instead.

// andOrDst is a closed-form kernel's view of the lane arrays: nc is the
// fanins' non-controlling field; prod and rest receive the product term and
// the remainder 1 − (prod + pa + pab), with zProd and zRest the node's
// off-path bits of those fields; a and ab receive pa and pab.
type andOrDst struct {
	nc, prod, rest, a, ab []float64
	zProd, zRest          uint64
}

// andOrView returns the view for an AND (or == false) or OR gate. An
// inverting gate swaps the pa/pab and the prod/rest destinations, and with
// them the off-path bits prod and rest are compared against.
func (b *BatchAnalyzer) andOrView(or, invert bool, z0, z1 uint64) andOrDst {
	d := andOrDst{nc: b.p1, a: b.pa, ab: b.pab}
	if or {
		d.nc = b.p0
	}
	if or == invert { // AND or NOR: the product lands in P1
		d.prod, d.rest, d.zProd, d.zRest = b.p1, b.p0, z1, z0
	} else {
		d.prod, d.rest, d.zProd, d.zRest = b.p0, b.p1, z0, z1
	}
	if invert {
		d.a, d.ab = d.ab, d.a
	}
	return d
}

// andOr2Lanes is the branch-light closed-form path for 2-input
// AND/NAND/OR/NOR: the fanin pair's live masks, lane bases and off-path
// non-controlling values are read once per node.
func (b *BatchAnalyzer) andOr2Lanes(base int, compute uint64, x, y *faninLanes, d *andOrDst) (live uint64) {
	mx, bx, spx := x.live, x.base, x.nc
	my, by, spy := y.live, y.base, y.nc
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		var xa, xab, xn float64
		if mx>>uint(l)&1 == 1 {
			j := bx + l
			xa, xab, xn = b.pa[j], b.pab[j], d.nc[j]
		} else {
			xa, xab, xn = 0, 0, spx
		}
		var ya, yab, yn float64
		if my>>uint(l)&1 == 1 {
			j := by + l
			ya, yab, yn = b.pa[j], b.pab[j], d.nc[j]
		} else {
			ya, yab, yn = 0, 0, spy
		}

		// float64(...) rounds each product, as the scalar andRule does:
		// Go may otherwise fuse it into the subtractions below (arm64).
		prod := float64(xn * yn)
		pa := float64((xn+xa)*(yn+ya)) - prod
		pab := float64((xn+xab)*(yn+yab)) - prod
		if pa < 0 {
			pa = 0
		}
		if pab < 0 {
			pab = 0
		}
		rest := 1 - (prod + pa + pab)
		if rest < 0 {
			rest = 0
		}
		j := base + l
		d.a[j], d.ab[j], d.prod[j], d.rest[j] = pa, pab, prod, rest
		if differs(pa, pab, prod, rest, d.zProd, d.zRest) {
			live |= 1 << uint(l)
		}
	}
	return live
}

// andOrNLanes applies the n-ary closed form per lane, fanins in declaration
// order as in the scalar rule.
func (b *BatchAnalyzer) andOrNLanes(base int, compute uint64, fin []faninLanes, d *andOrDst) (live uint64) {
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		prod, pa, pab := 1.0, 1.0, 1.0
		for k := range fin {
			in := &fin[k]
			xa, xab, xn := 0.0, 0.0, in.nc
			if in.live>>uint(l)&1 == 1 {
				j := in.base + l
				xa, xab, xn = b.pa[j], b.pab[j], d.nc[j]
			}
			prod *= xn
			pa *= xn + xa
			pab *= xn + xab
		}
		pa -= prod
		pab -= prod
		if pa < 0 {
			pa = 0
		}
		if pab < 0 {
			pab = 0
		}
		rest := 1 - (prod + pa + pab)
		if rest < 0 {
			rest = 0
		}
		j := base + l
		d.a[j], d.ab[j], d.prod[j], d.rest[j] = pa, pab, prod, rest
		if differs(pa, pab, prod, rest, d.zProd, d.zRest) {
			live |= 1 << uint(l)
		}
	}
	return live
}

// unaryLanes handles BUF (copy) and NOT (polarity/constant swap) lanes. NOT
// compares its pre-inversion values against swapped z0/z1.
func (b *BatchAnalyzer) unaryLanes(base int, compute uint64, in *faninLanes, z0, z1 uint64, invert bool) (live uint64) {
	if invert {
		z0, z1 = z1, z0
	}
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		xa, xab, x0, x1 := b.read(in, l)
		j := base + l
		if invert {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = xab, xa, x1, x0
		} else {
			b.pa[j], b.pab[j], b.p0[j], b.p1[j] = xa, xab, x0, x1
		}
		if differs(xa, xab, x0, x1, z0, z1) {
			live |= 1 << uint(l)
		}
	}
	return live
}

// genericLanes is the fallback shared with the scalar sweep: gather fanin
// Prob4 states and apply the configured rule (Analyzer.rule). XOR/XNOR
// under every rule set, and all gates under RulesPairwise/RulesNoPolarity,
// take this path, so the batched engine inherits the scalar semantics
// exactly.
func (b *BatchAnalyzer) genericLanes(base int, compute uint64, kind logic.Kind, fin []faninLanes, z0, z1 uint64) (live uint64) {
	for mm := compute; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		b.ins = b.ins[:0]
		for k := range fin {
			xa, xab, x0, x1 := b.read(&fin[k], l)
			b.ins = append(b.ins, logic.Prob4{
				logic.SymA:    xa,
				logic.SymABar: xab,
				logic.SymZero: x0,
				logic.SymOne:  x1,
			})
		}
		st := b.a.rule(kind, b.ins)
		pa, pab, p0, p1 := st[logic.SymA], st[logic.SymABar], st[logic.SymZero], st[logic.SymOne]
		j := base + l
		b.pa[j], b.pab[j], b.p0[j], b.p1[j] = pa, pab, p0, p1
		if differs(pa, pab, p0, p1, z0, z1) {
			live |= 1 << uint(l)
		}
	}
	return live
}

// gateUses returns, per node, its number of fanout edges into gates. That
// is a union-cone member's in-cone consumer count: the union cone holds every
// gate fanout of a member (graph.Walker.UnionCone stops only at flip-flops),
// and the fanout CSR lists one entry per use. Computed once per Analyzer and
// shared with its Clones.
func (a *Analyzer) gateUses() []int32 {
	if a.uses != nil {
		return a.uses
	}
	foIdx, foArr := a.c.FanoutCSR()
	uses := make([]int32, a.c.N())
	for id := range uses {
		for _, o := range foArr[foIdx[id]:foIdx[id+1]] {
			if a.kinds[o].IsGate() {
				uses[id]++
			}
		}
	}
	a.uses = uses
	return uses
}

// offPathFixed returns, per node, whether the configured rule applied to
// every fanin's off-path state reproduces the node's own off-path state
// FromSP(sp) bitwise. Where it holds, a lane with no live fanin would
// compute exactly the off-path state, so the batched sweep skips it. It
// fails where the rule's arithmetic does not round-trip the signal
// probability (a NAND's 1 − (1 − x) ≠ x, or Monte Carlo SP that no gate
// rule reproduces). Computed once per Analyzer and shared with its Clones;
// false for non-gates, which the sweep never evaluates.
func (a *Analyzer) offPathFixed() []bool {
	if a.fixed != nil {
		return a.fixed
	}
	fixed := make([]bool, a.c.N())
	var ins []logic.Prob4
	for id, kind := range a.kinds {
		if !kind.IsGate() {
			continue
		}
		ins = ins[:0]
		for _, f := range a.fiArr[a.fiIdx[id]:a.fiIdx[id+1]] {
			ins = append(ins, logic.FromSP(a.sp[f]))
		}
		st, off := a.rule(kind, ins), logic.FromSP(a.sp[id])
		fixed[id] = !differs(st[logic.SymA], st[logic.SymABar], st[logic.SymZero], st[logic.SymOne],
			math.Float64bits(off[logic.SymZero]), math.Float64bits(off[logic.SymOne]))
	}
	a.fixed = fixed
	return fixed
}
