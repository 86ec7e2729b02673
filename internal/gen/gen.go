// Package gen generates deterministic synthetic gate-level circuits.
//
// The paper evaluates on the ISCAS'89 benchmark suite, whose netlist files
// are distribution-restricted artifacts not available offline. Per the
// documented substitution (DESIGN.md §2), this package produces circuits
// with the published PI/PO/FF/gate counts of each ISCAS'89 circuit and a
// realistic topology: levelized DAG construction with a bounded logical
// depth, a fanin distribution centered on 2–3, reconvergent fanout, and an
// inverter/complex-gate mix typical of mapped netlists. Generation is fully
// deterministic in the seed, so the Table 2 reproduction is stable.
//
// Real ISCAS'89 .bench files, where available, drop in unchanged through the
// bench package and can be used instead of the synthetic profiles.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Params control random circuit generation.
type Params struct {
	Name  string
	Seed  uint64
	PIs   int
	POs   int
	FFs   int
	Gates int
	// Levels fixes the number of logic levels (the logical depth bound).
	// Default: 10 + 5·log2(1 + Gates/250), clamped to [4, Gates], matching
	// the depth range of real mapped benchmark netlists.
	Levels int
	// MaxFanin bounds gate fanin (default 4, minimum 2).
	MaxFanin int
	// InverterFrac is the fraction of gates that are single-input NOT/BUFF.
	// Only an out-of-range value (negative or >= 1) is replaced, by 0.15
	// (the share in mapped netlists); the zero value stays 0 and generates
	// no NOT/BUFF gates, which is what every built-in profile does.
	InverterFrac float64
	// XorFrac is the fraction of multi-input gates that are XOR/XNOR. Only
	// an out-of-range value (negative or >= 1) is replaced, by 0.05; the
	// zero value stays 0 and generates no XOR/XNOR gates.
	XorFrac float64
	// NoXor removes XOR/XNOR entirely (some flows exclude them).
	NoXor bool
}

func (p *Params) setDefaults() error {
	if p.Name == "" {
		p.Name = "random"
	}
	if p.PIs <= 0 && p.FFs <= 0 {
		return fmt.Errorf("gen: circuit %q needs at least one source", p.Name)
	}
	if p.Gates <= 0 {
		return fmt.Errorf("gen: circuit %q needs at least one gate", p.Name)
	}
	if p.POs <= 0 && p.FFs <= 0 {
		return fmt.Errorf("gen: circuit %q needs at least one observation point", p.Name)
	}
	if p.MaxFanin < 2 {
		p.MaxFanin = 4
	}
	if p.Levels <= 0 {
		p.Levels = 10 + int(5*math.Log2(1+float64(p.Gates)/250))
	}
	if p.Levels < 4 {
		p.Levels = 4
	}
	if p.Levels > p.Gates {
		p.Levels = p.Gates
	}
	if p.InverterFrac < 0 || p.InverterFrac >= 1 {
		p.InverterFrac = 0.15
	}
	if p.XorFrac < 0 || p.XorFrac >= 1 {
		p.XorFrac = 0.05
	}
	return nil
}

// Random generates a circuit from the parameters. The result is
// deterministic in Params (including Seed).
func Random(p Params) (*netlist.Circuit, error) {
	if err := p.setDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(p.Seed, 0x5851f42d4c957f2d))

	total := p.PIs + p.FFs + p.Gates
	nodes := make([]netlist.Node, 0, total)
	var pis, pos, ffs []netlist.ID

	newNode := func(name string, kind logic.Kind, fanin []netlist.ID) netlist.ID {
		id := netlist.ID(len(nodes))
		nodes = append(nodes, netlist.Node{ID: id, Name: name, Kind: kind, Fanin: fanin})
		return id
	}

	// Sources first: primary inputs, then flip-flop outputs (D assigned at
	// the end, after gates exist).
	for i := 0; i < p.PIs; i++ {
		pis = append(pis, newNode(fmt.Sprintf("pi%d", i), logic.Input, nil))
	}
	for i := 0; i < p.FFs; i++ {
		ffs = append(ffs, newNode(fmt.Sprintf("ff%d", i), logic.DFF, nil))
	}

	// uncovered tracks nodes that nothing consumes yet, so fanin selection
	// can prefer them and the generated logic has few dead cones.
	uncovered := make([]netlist.ID, 0, total)
	uncoveredPos := make(map[netlist.ID]int, total)
	addUncovered := func(id netlist.ID) {
		uncoveredPos[id] = len(uncovered)
		uncovered = append(uncovered, id)
	}
	removeUncovered := func(id netlist.ID) {
		pos, ok := uncoveredPos[id]
		if !ok {
			return
		}
		last := uncovered[len(uncovered)-1]
		uncovered[pos] = last
		uncoveredPos[last] = pos
		uncovered = uncovered[:len(uncovered)-1]
		delete(uncoveredPos, id)
	}
	for id := netlist.ID(0); int(id) < len(nodes); id++ {
		addUncovered(id)
	}

	// Levelized construction: bucket[l] holds node IDs assigned to level l;
	// bucket[0] is the sources. Gates are distributed near-uniformly over
	// levels 1..Levels and each takes its first fanin from the previous
	// level, bounding the logical depth by construction.
	buckets := make([][]netlist.ID, p.Levels+1)
	buckets[0] = make([]netlist.ID, len(nodes))
	for i := range nodes {
		buckets[0][i] = netlist.ID(i)
	}

	// pickBelow selects a fanin from any level < lv: mostly the previous
	// level (building depth), sometimes an uncovered node (limiting dead
	// logic), sometimes any earlier level (creating long reconvergence).
	pickBelow := func(lv int) netlist.ID {
		r := rng.Float64()
		switch {
		case r < 0.45 || lv == 1:
			b := buckets[lv-1]
			if len(b) > 0 {
				return b[rng.IntN(len(b))]
			}
		case r < 0.75 && len(uncovered) > 0:
			return uncovered[rng.IntN(len(uncovered))]
		}
		for {
			l := rng.IntN(lv)
			if len(buckets[l]) > 0 {
				return buckets[l][rng.IntN(len(buckets[l]))]
			}
		}
	}

	multiKinds := []logic.Kind{logic.And, logic.Nand, logic.Or, logic.Nor}
	g := 0
	var pendingUncovered []netlist.ID // current-level gates, released at level end
	for lv := 1; lv <= p.Levels; lv++ {
		// Distribute gates evenly with the remainder spread over the first
		// levels.
		nThis := p.Gates / p.Levels
		if lv <= p.Gates%p.Levels {
			nThis++
		}
		for k := 0; k < nThis; k++ {
			var kind logic.Kind
			var fanin []netlist.ID
			if rng.Float64() < p.InverterFrac {
				if rng.Float64() < 0.8 {
					kind = logic.Not
				} else {
					kind = logic.Buf
				}
				fanin = []netlist.ID{pickBelow(lv)}
			} else {
				nIn := 2
				switch r := rng.Float64(); {
				case r < 0.55:
					nIn = 2
				case r < 0.85:
					nIn = 3
				default:
					nIn = 3 + rng.IntN(max(p.MaxFanin-2, 1))
				}
				nIn = min(nIn, p.MaxFanin)
				if !p.NoXor && rng.Float64() < p.XorFrac {
					if rng.Float64() < 0.5 {
						kind = logic.Xor
					} else {
						kind = logic.Xnor
					}
					nIn = 2
				} else {
					kind = multiKinds[rng.IntN(len(multiKinds))]
				}
				seen := make(map[netlist.ID]bool, nIn)
				// First fanin from the previous level anchors the gate's
				// depth near lv.
				prev := buckets[lv-1]
				first := prev[rng.IntN(len(prev))]
				seen[first] = true
				fanin = append(fanin, first)
				for tries := 0; len(fanin) < nIn && tries < 16; tries++ {
					f := pickBelow(lv)
					if seen[f] {
						continue
					}
					seen[f] = true
					fanin = append(fanin, f)
				}
			}
			id := newNode(fmt.Sprintf("g%d", g), kind, fanin)
			g++
			for _, f := range fanin {
				removeUncovered(f)
			}
			// Defer: same-level gates must not feed each other, or the
			// realized depth exceeds the Levels bound.
			pendingUncovered = append(pendingUncovered, id)
			buckets[lv] = append(buckets[lv], id)
		}
		for _, id := range pendingUncovered {
			addUncovered(id)
		}
		pendingUncovered = pendingUncovered[:0]
		if len(buckets[lv]) == 0 {
			// Keep every level non-empty so pickBelow(lv+1) has a previous
			// bucket; borrow the last node overall.
			buckets[lv] = append(buckets[lv], netlist.ID(len(nodes)-1))
		}
	}

	firstGate := p.PIs + p.FFs
	// Flip-flop D inputs: prefer uncovered gates, else random gates.
	for _, ff := range ffs {
		var d netlist.ID
		if len(uncovered) > 0 {
			d = uncovered[rng.IntN(len(uncovered))]
			if d == ff {
				d = netlist.ID(firstGate + rng.IntN(p.Gates))
			}
		} else {
			d = netlist.ID(firstGate + rng.IntN(p.Gates))
		}
		nodes[ff].Fanin = []netlist.ID{d}
		removeUncovered(d)
	}

	// Primary outputs: uncovered gates first (the natural sinks), then
	// random distinct gates.
	poSet := make(map[netlist.ID]bool, p.POs)
	for _, id := range uncovered {
		if len(poSet) >= p.POs {
			break
		}
		if int(id) >= firstGate {
			poSet[id] = true
		}
	}
	for guard := 0; len(poSet) < p.POs && guard < 100*p.POs; guard++ {
		poSet[netlist.ID(firstGate+rng.IntN(p.Gates))] = true
	}
	for id := netlist.ID(0); int(id) < len(nodes); id++ {
		if poSet[id] {
			nodes[id].IsPO = true
			pos = append(pos, id)
		}
	}

	return netlist.New(p.Name, nodes, pis, pos, ffs)
}

// MustRandom is Random for known-good parameters; it panics on error.
func MustRandom(p Params) *netlist.Circuit {
	c, err := Random(p)
	if err != nil {
		panic(err)
	}
	return c
}

// FuzzParams maps raw fuzz-input fields onto valid Params, so a
// differential fuzz target explores circuit shape without rejecting
// inputs: MaxFanin 2–5 (fanin), 0–7 flip-flops (ffs), and from mix: NOT/BUF
// gates of fanin 1 (bit 0), XOR/XNOR gates (bit 1) and 1–8 primary outputs
// (bits 5–7). size picks one of two sizes:
//
//   - below 0xc0, a small circuit of 5–80 gates and 1–8 primary inputs
//     (mix bits 2–4), whose sites fit in one or two 64-site batches;
//   - from 0xc0, a large one of 200–600 gates (the low six bits) and 16–128
//     primary inputs (mix bits 2–4), whose sites span several batches and
//     whose level-0 sources alone can fill one, so a flip-flop and the
//     gates of its D-input cone can land in different batches.
func FuzzParams(seed uint64, size, fanin, ffs, mix uint8) Params {
	p := Params{
		Name:     "fuzz",
		Seed:     seed,
		Gates:    5 + int(size)%76,
		MaxFanin: 2 + int(fanin)%4,
		FFs:      int(ffs) % 8,
		PIs:      1 + int(mix>>2)%8,
		POs:      1 + int(mix>>5),
	}
	if size >= 0xc0 {
		p.Gates = 200 + int(size&0x3f)*400/63
		p.PIs *= 16
	}
	if mix&1 != 0 {
		p.InverterFrac = 0.2
	}
	if mix&2 != 0 {
		p.XorFrac = 0.15
	}
	return p
}

// FuzzCircuit generates the random circuit of p and grafts edge-case gadget
// gadget%9 onto it (0: none), wired to nodes picked by seed's bytes — the
// circuit decoder of the kernels' differential fuzz targets:
//
//	1: XOR(s, s), whose value never differs from the good machine's (and
//	   whose on-path state is constant 0 while topological SP says 0.5),
//	   feeding a NAND and a flip-flop;
//	2: constant masking — AND(s, 0) into an OR and a NAND without the
//	   off-path fixed point, and NOR(s, 1) into a flip-flop;
//	3–6: AND, NAND, OR and NOR at fanin 1, 2, 3 and 5, reconverging at an
//	   XOR and through a flip-flop;
//	7: a flip-flop that carries t's divergence structurally but always
//	   latches its good value (t is masked by AND(s, NOT(s)) before its D
//	   input), in a loop with a live side input u, observed directly and
//	   through a second flip-flop;
//	8: a flip-flop whose D input only its own output reaches, through a
//	   chain of 1–4 inverters and buffers, observed directly and through
//	   an XOR with a live side input s: a strike on the flip-flop must be
//	   carried across the clock edge although no other site reaches the D
//	   input.
func FuzzCircuit(p Params, gadget uint8, seed uint64) (*netlist.Circuit, error) {
	base, err := Random(p)
	g := int(gadget % 9)
	if err != nil || g == 0 {
		return base, err
	}
	nodes := make([]netlist.Node, base.N())
	for i, nd := range base.Nodes {
		nodes[i] = netlist.Node{ID: nd.ID, Name: nd.Name, Kind: nd.Kind, Fanin: nd.Fanin, IsPO: nd.IsPO}
	}
	pos, ffs := slices.Clone(base.POs), slices.Clone(base.FFs)
	add := func(kind logic.Kind, fanin ...netlist.ID) netlist.ID {
		id := netlist.ID(len(nodes))
		nodes = append(nodes, netlist.Node{ID: id, Name: fmt.Sprintf("x%d", id), Kind: kind, Fanin: fanin})
		if kind == logic.DFF {
			ffs = append(ffs, id)
		}
		return id
	}
	out := func(id netlist.ID) {
		nodes[id].IsPO = true
		pos = append(pos, id)
	}
	var at [5]netlist.ID
	for i := range at {
		at[i] = netlist.ID(int(seed>>(8*i)&0xff) % base.N())
	}
	s, t, u := at[0], at[1], at[2]
	switch g {
	case 1:
		x := add(logic.Xor, s, s)
		out(add(logic.Nand, x, t))
		out(add(logic.Or, add(logic.DFF, x), u))
	case 2:
		m := add(logic.And, s, add(logic.Const0))
		out(add(logic.Or, add(logic.Nand, add(logic.Or, m, t), u), s))
		out(add(logic.Xor, add(logic.DFF, add(logic.Nor, s, add(logic.Const1))), t))
	case 7:
		q := add(logic.DFF, s) // D input patched below, closing the loop
		zero := add(logic.And, s, add(logic.Not, s))
		nodes[q].Fanin = []netlist.ID{add(logic.Or, add(logic.And, t, zero), add(logic.And, q, u))}
		out(add(logic.Xor, q, u))
		out(add(logic.Buf, add(logic.DFF, q)))
	case 8:
		q := add(logic.DFF, s) // D input patched below, closing the loop
		d := q
		for i := range 1 + int(seed>>40)%4 {
			d = add([]logic.Kind{logic.Not, logic.Buf}[seed>>(44+i)&1], d)
		}
		nodes[q].Fanin = []netlist.ID{d}
		out(add(logic.Buf, q))
		out(add(logic.Xor, q, s))
	default:
		ins := at[:[]int{1, 2, 3, 5}[g-3]]
		and, nor := add(logic.And, ins...), add(logic.Nor, ins...)
		out(add(logic.Nand, ins...))
		out(add(logic.Or, ins...))
		out(add(logic.Xor, and, nor))
		out(add(logic.Or, add(logic.DFF, and), nor))
	}
	return netlist.New(base.Name, nodes, base.PIs, pos, ffs)
}
