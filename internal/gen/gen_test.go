package gen

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

func TestProfileCountsRespected(t *testing.T) {
	for _, p := range ISCAS89 {
		if p.Gates > 2000 {
			continue // large profiles covered by the harness, not unit tests
		}
		c, err := FromProfile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		s := c.Stats()
		if s.PIs != p.PIs || s.POs != p.POs || s.FFs != p.FFs || s.Gates != p.Gates {
			t.Errorf("%s: got %d/%d/%d/%d, want %d/%d/%d/%d",
				p.Name, s.PIs, s.POs, s.FFs, s.Gates, p.PIs, p.POs, p.FFs, p.Gates)
		}
		if c.Name != p.Name {
			t.Errorf("circuit name %q", c.Name)
		}
	}
}

// TestProfileDepthMatchesPublished: the synthetic stand-ins reproduce the
// published logical depth of each ISCAS'89 circuit (the generator's Levels
// bound is tight for these gate densities).
func TestProfileDepthMatchesPublished(t *testing.T) {
	for _, p := range ISCAS89 {
		if p.Gates > 2000 {
			continue
		}
		c, err := FromProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.MaxLevel(); got != p.Depth {
			t.Errorf("%s: depth %d, published %d", p.Name, got, p.Depth)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := MustRandom(Params{Name: "d", Seed: 5, PIs: 6, POs: 3, FFs: 2, Gates: 80})
	b := MustRandom(Params{Name: "d", Seed: 5, PIs: 6, POs: 3, FFs: 2, Gates: 80})
	if a.N() != b.N() {
		t.Fatal("node counts differ")
	}
	for i := range a.Nodes {
		x, y := &a.Nodes[i], &b.Nodes[i]
		if x.Name != y.Name || x.Kind != y.Kind || len(x.Fanin) != len(y.Fanin) || x.IsPO != y.IsPO {
			t.Fatalf("node %d differs: %+v vs %+v", i, x, y)
		}
		for j := range x.Fanin {
			if x.Fanin[j] != y.Fanin[j] {
				t.Fatalf("node %d fanin differs", i)
			}
		}
	}
	c := MustRandom(Params{Name: "d", Seed: 6, PIs: 6, POs: 3, FFs: 2, Gates: 80})
	same := true
	for i := range a.Nodes {
		if a.Nodes[i].Kind != c.Nodes[i].Kind || len(a.Nodes[i].Fanin) != len(c.Nodes[i].Fanin) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical structure (suspicious)")
	}
}

func TestGeneratedCircuitsValid(t *testing.T) {
	// netlist.New already validates; this asserts analytical properties the
	// generator promises: few dead cones, sane depth, no XOR when disabled.
	c := MustRandom(Params{Name: "v", Seed: 1, PIs: 10, POs: 5, FFs: 5, Gates: 400, NoXor: true})
	for i := range c.Nodes {
		k := c.Nodes[i].Kind
		if k == logic.Xor || k == logic.Xnor {
			t.Fatalf("NoXor violated at node %d", i)
		}
	}
	if c.MaxLevel() < 3 {
		t.Errorf("depth %d too shallow for 400 gates", c.MaxLevel())
	}
	// Dead logic (gates with no fanout that are not observed) should be
	// rare thanks to uncovered-first selection.
	dead := 0
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Kind.IsGate() && len(n.Fanout) == 0 && !c.IsObserved(n.ID) {
			dead++
		}
	}
	if frac := float64(dead) / float64(c.NumGates()); frac > 0.10 {
		t.Errorf("%.1f%% dead gates", 100*frac)
	}
}

func TestReconvergenceExists(t *testing.T) {
	// A realistic profile must contain reconvergent fanout: some node with
	// fanout >= 2 whose branches re-meet. Cheap proxy: max fanout > 1 and
	// at least one gate has two fanins with a common ancestor — guaranteed
	// if any node has fanout >= 2 feeding gates. Check max fanout.
	c := MustRandom(Params{Name: "r", Seed: 2, PIs: 8, POs: 4, Gates: 200})
	if c.Stats().MaxFanout < 2 {
		t.Error("no fanout >= 2: generator produces only trees")
	}
}

func TestSmallRandomWithinExhaustiveLimit(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		c := SmallRandom(seed)
		if n := len(c.Sources()); n > 24 {
			t.Fatalf("seed %d: %d sources", seed, n)
		}
		cs := SmallRandomSequential(seed)
		if n := len(cs.Sources()); n > 24 {
			t.Fatalf("seq seed %d: %d sources", seed, n)
		}
		if len(cs.FFs) == 0 {
			t.Fatalf("seq seed %d: no flip-flops", seed)
		}
	}
}

func TestTreeRandomIsFanoutFree(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		c := TreeRandom(seed)
		for i := range c.Nodes {
			if len(c.Nodes[i].Fanout) > 1 {
				t.Fatalf("seed %d: node %s has fanout %d",
					seed, c.Nodes[i].Name, len(c.Nodes[i].Fanout))
			}
		}
		if len(c.POs) != 1 {
			t.Fatalf("seed %d: %d POs", seed, len(c.POs))
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("s1196")
	if !ok || p.Gates != 529 {
		t.Errorf("s1196 profile = %+v, ok=%v", p, ok)
	}
	if _, ok := ProfileByName("s999"); ok {
		t.Error("unknown profile found")
	}
	if _, err := ByName("s999"); err == nil {
		t.Error("ByName accepted unknown circuit")
	}
}

func TestParamValidation(t *testing.T) {
	if _, err := Random(Params{Name: "x", Gates: 10}); err == nil {
		t.Error("no sources accepted")
	}
	if _, err := Random(Params{Name: "x", PIs: 2}); err == nil {
		t.Error("no gates accepted")
	}
	if _, err := Random(Params{Name: "x", PIs: 2, Gates: 5}); err == nil {
		t.Error("no observation points accepted")
	}
}

func TestSmallNames(t *testing.T) {
	names := SmallNames()
	if len(names) != 6 {
		t.Errorf("SmallNames = %v", names)
	}
	for _, n := range names {
		p, _ := ProfileByName(n)
		if p.Gates >= 1000 {
			t.Errorf("%s not small", n)
		}
	}
}

func TestFFDInputsAssigned(t *testing.T) {
	c := MustRandom(Params{Name: "ff", Seed: 3, PIs: 4, POs: 2, FFs: 6, Gates: 60})
	for _, ff := range c.FFs {
		if len(c.Node(ff).Fanin) != 1 {
			t.Fatalf("FF %d has %d fanins", ff, len(c.Node(ff).Fanin))
		}
		if d := c.Node(ff).Fanin[0]; d == ff {
			t.Fatalf("FF %d drives its own D directly", ff)
		}
	}
	_ = netlist.InvalidID
}

// TestMaxFaninBound: every generated gate respects MaxFanin, including its
// smallest accepted value 2 (which used to panic drawing a fanin count).
func TestMaxFaninBound(t *testing.T) {
	for _, maxFanin := range []int{2, 3, 5} {
		for seed := uint64(0); seed < 8; seed++ {
			c, err := Random(Params{Seed: seed, PIs: 4, POs: 2, FFs: 2, Gates: 80, MaxFanin: maxFanin})
			if err != nil {
				t.Fatal(err)
			}
			for id := range c.Nodes {
				if k := len(c.FaninOf(netlist.ID(id))); c.Nodes[id].Kind.IsGate() && k > maxFanin {
					t.Fatalf("MaxFanin %d seed %d: gate %s has fanin %d", maxFanin, seed, c.NameOf(netlist.ID(id)), k)
				}
			}
		}
	}
}

// TestFuzzParamsSizes: every size byte maps to a valid circuit in its
// size's gate and input range, and gadget 8's flip-flop takes its D input
// from a chain of 1–4 inverters and buffers that starts at the flip-flop
// itself, so no other node reaches that D input.
func TestFuzzParamsSizes(t *testing.T) {
	for size := 0; size < 256; size += 7 {
		p := FuzzParams(uint64(size), uint8(size), 3, 5, uint8(size*37))
		lo, hi, pis := 5, 80, [2]int{1, 8}
		if size >= 0xc0 {
			lo, hi, pis = 200, 600, [2]int{16, 128}
		}
		if p.Gates < lo || p.Gates > hi || p.PIs < pis[0] || p.PIs > pis[1] {
			t.Fatalf("size %#x: %d gates and %d inputs, want %d–%d and %d–%d", size, p.Gates, p.PIs, lo, hi, pis[0], pis[1])
		}
		c, err := FuzzCircuit(p, 8, uint64(size)*0x9e3779b97f4a7c15)
		if err != nil {
			t.Fatalf("size %#x: %v", size, err)
		}
		q := c.FFs[len(c.FFs)-1]
		var loop []netlist.ID
		for id := c.FaninOf(q)[0]; id != q; id = c.FaninOf(id)[0] {
			if k := c.KindOf(id); k != logic.Not && k != logic.Buf {
				t.Fatalf("size %#x: %s on q's D-input chain is a %v", size, c.NameOf(id), k)
			}
			loop = append(loop, id)
		}
		if len(loop) < 1 || len(loop) > 4 {
			t.Fatalf("size %#x: D-input chain of %d gates, want 1–4", size, len(loop))
		}
	}
}
