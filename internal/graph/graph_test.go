package graph

import (
	"math/rand/v2"
	"testing"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// fig1 builds the circuit of the paper's Figure 1:
//
//	A (error site), B, C, F inputs
//	E = NOT(A); G = AND(E, F); D = AND(A, B); H = OR(C, D, G); H is the PO.
func fig1(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(`
INPUT(A)
INPUT(B)
INPUT(C)
INPUT(F)
OUTPUT(H)
E = NOT(A)
G = AND(E, F)
D = AND(A, B)
H = OR(C, D, G)
`)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestForwardConeFig1(t *testing.T) {
	c := fig1(t)
	w := NewWalker(c)
	cone := w.ForwardCone(c.ByName("A"))

	wantMembers := map[string]bool{"A": true, "E": true, "G": true, "D": true, "H": true}
	if cone.Size() != len(wantMembers) {
		t.Fatalf("cone size = %d, want %d", cone.Size(), len(wantMembers))
	}
	for _, id := range cone.Members {
		if !wantMembers[c.NameOf(id)] {
			t.Errorf("unexpected cone member %s", c.NameOf(id))
		}
	}
	// Off-path inputs B, C, F are not members.
	for _, off := range []string{"B", "C", "F"} {
		if cone.Contains(c.ByName(off)) {
			t.Errorf("off-path signal %s in cone", off)
		}
	}
	if len(cone.Outputs) != 1 || c.NameOf(cone.Outputs[0]) != "H" {
		t.Errorf("cone outputs = %v", cone.Outputs)
	}
	if cone.Members[0] != c.ByName("A") {
		t.Errorf("cone must start at the root")
	}
}

func TestConeTopologicalOrder(t *testing.T) {
	c := gen.MustRandom(gen.Params{Name: "t", Seed: 42, PIs: 8, POs: 4, Gates: 120})
	w := NewWalker(c)
	pos := make([]int, c.N())
	for id := 0; id < c.N(); id++ {
		cone := w.ForwardCone(netlist.ID(id))
		if cone.Members[0] != netlist.ID(id) {
			t.Fatalf("cone of %d does not start at its root", id)
		}
		// Topological property: every on-path fanin of a member appears
		// earlier in the member list.
		for i, m := range cone.Members {
			pos[m] = i
		}
		for i, m := range cone.Members[1:] {
			for _, f := range c.Node(m).Fanin {
				if cone.Contains(f) && pos[f] >= i+1 {
					t.Fatalf("cone of %d: fanin %d of member %d appears later", id, f, m)
				}
			}
		}
		// Every non-root member must have at least one fanin inside the cone
		// (the definition of an on-path gate).
		for _, m := range cone.Members[1:] {
			found := false
			for _, f := range c.Node(m).Fanin {
				if cone.Contains(f) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cone member %d has no on-path fanin", m)
			}
		}
	}
}

func TestConeStopsAtFlipFlops(t *testing.T) {
	c, err := bench.ParseString(`
INPUT(a)
OUTPUT(z)
d = NOT(a)
q = DFF(d)
z = NOT(q)
`)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(c)
	cone := w.ForwardCone(c.ByName("a"))
	// Cone: a, d. Not q (FF) and not z (behind the FF).
	if cone.Size() != 2 {
		t.Fatalf("cone size = %d, want 2", cone.Size())
	}
	if cone.Contains(c.ByName("q")) || cone.Contains(c.ByName("z")) {
		t.Error("cone crossed a flip-flop boundary")
	}
	// The observation point is d (the FF's D input).
	if len(cone.Outputs) != 1 || c.NameOf(cone.Outputs[0]) != "d" {
		t.Errorf("outputs = %v", cone.Outputs)
	}
}

func TestWalkerReuse(t *testing.T) {
	c := fig1(t)
	w := NewWalker(c)
	c1 := w.ForwardCone(c.ByName("A"))
	size1 := c1.Size()
	// Second query must fully reset scratch.
	c2 := w.ForwardCone(c.ByName("C"))
	if c2.Size() != 2 { // C and H
		t.Fatalf("cone(C) size = %d, want 2", c2.Size())
	}
	c1b := w.ForwardCone(c.ByName("A"))
	if c1b.Size() != size1 {
		t.Fatalf("repeat cone(A) size = %d, want %d", c1b.Size(), size1)
	}
}

// TestUnionConeMatchesForwardCones: over random combinational and
// sequential circuits and random root sets, UnionCone holds exactly the
// union of the roots' ForwardCone members, each once, in level order, never
// past a flip-flop, and Stamps marks exactly those members — also across the
// uint32 epoch wraparound.
func TestUnionConeMatchesForwardCones(t *testing.T) {
	cases := []struct {
		name string
		c    *netlist.Circuit
		wrap bool // park the epoch just before overflow after trial 0
	}{
		{"comb", gen.MustRandom(gen.Params{Name: "comb", Seed: 42, PIs: 8, POs: 4, Gates: 120}), false},
		{"seq", gen.MustRandom(gen.Params{Name: "seq", Seed: 7, PIs: 6, POs: 3, FFs: 12, Gates: 200}), false},
		{"small-seq", gen.SmallRandomSequential(3), false},
		{"seq-wrap", gen.MustRandom(gen.Params{Name: "seq", Seed: 9, PIs: 5, POs: 2, FFs: 10, Gates: 150}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			n := c.N()
			kinds, levels := c.Kinds(), c.Levels()
			ref := NewWalker(c)
			w := NewWalker(c)
			rng := rand.New(rand.NewPCG(uint64(n), 1))
			for trial := 0; trial < 40; trial++ {
				if tc.wrap && trial == 1 {
					// Trial 0 left stamps at epoch 1; the wrap four trials
					// on must clear them rather than revive them.
					w.epoch = ^uint32(0) - 3
				}
				roots := make([]netlist.ID, 1+rng.IntN(64))
				isRoot := make([]bool, n)
				for i := range roots {
					roots[i] = netlist.ID(rng.IntN(n))
					isRoot[roots[i]] = true
				}
				want := make([]bool, n)
				size := 0
				for _, r := range roots {
					for _, id := range ref.ForwardCone(r).Members {
						if !want[id] {
							want[id] = true
							size++
						}
					}
				}
				got := w.UnionCone(roots)
				stamp, epoch := w.Stamps()
				if len(got) != size {
					t.Fatalf("trial %d: %d members, want %d", trial, len(got), size)
				}
				seen := make([]bool, n)
				for i, id := range got {
					if !want[id] || seen[id] {
						t.Fatalf("trial %d: member %d unexpected or repeated", trial, id)
					}
					seen[id] = true
					if i > 0 && levels[id] < levels[got[i-1]] {
						t.Fatalf("trial %d: member %d out of level order", trial, id)
					}
					if kinds[id] == logic.DFF && !isRoot[id] {
						t.Fatalf("trial %d: union crossed into flip-flop %d", trial, id)
					}
				}
				for id := range want {
					if (stamp[id] == epoch) != want[id] {
						t.Fatalf("trial %d: Stamps membership of %d = %v, want %v", trial, id, stamp[id] == epoch, want[id])
					}
				}
			}
			if tc.wrap && w.epoch >= ^uint32(0)-3 {
				t.Fatalf("epoch = %d, wraparound not exercised", w.epoch)
			}
		})
	}
}
