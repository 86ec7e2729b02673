package harden

import (
	"context"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/ser"
	"repro/internal/sigprob"
	"repro/internal/simulate"
	"strings"
)

func sample(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(`
INPUT(a)
INPUT(b)
INPUT(cc)
OUTPUT(y)
g1 = AND(a, b)
g2 = OR(g1, cc)
y = NOT(g2)
`)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTMRStructure(t *testing.T) {
	c := sample(t)
	h, err := TMR(c, []netlist.ID{c.ByName("g1")})
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != c.N()+Overhead(1) {
		t.Fatalf("node count %d, want %d", h.N(), c.N()+Overhead(1))
	}
	for _, name := range []string{"g1_r1", "g1_r2", "g1_v1", "g1_v2", "g1_v3", "g1_v"} {
		if h.ByName(name) == netlist.InvalidID {
			t.Errorf("missing %s", name)
		}
	}
	// g2 must now read the voter, not g1.
	g2 := h.Node(h.ByName("g2"))
	if h.NameOf(g2.Fanin[0]) != "g1_v" {
		t.Errorf("g2 fanin = %s, want g1_v", h.NameOf(g2.Fanin[0]))
	}
}

// TestTMRLeavesInputCircuitIntact: TMR must not mutate its input. The
// replica nodes are seeded from the original's fanin lists, which alias the
// circuit's shared CSR storage; a missing copy there lets the cascaded-
// protection rewire write voter IDs (out of range for the input circuit)
// into the caller's netlist.
func TestTMRLeavesInputCircuitIntact(t *testing.T) {
	c := sample(t)
	var before [][]netlist.ID
	for i := 0; i < c.N(); i++ {
		before = append(before, append([]netlist.ID(nil), c.Node(netlist.ID(i)).Fanin...))
	}
	// Protect two gates where one consumes the other (g2 reads g1), the
	// case that forces rewiring of replica fanins.
	if _, err := TMR(c, []netlist.ID{c.ByName("g1"), c.ByName("g2")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N(); i++ {
		got := c.Node(netlist.ID(i)).Fanin
		for j, f := range got {
			if f != before[i][j] {
				t.Fatalf("TMR mutated input circuit: node %s fanin[%d] = %d, want %d",
					c.NameOf(netlist.ID(i)), j, f, before[i][j])
			}
		}
	}
}

// TestTMRFunctionalEquivalence: the transformed circuit computes the same
// outputs for every input assignment.
func TestTMRFunctionalEquivalence(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		c := gen.SmallRandom(seed + 60)
		// Protect three scattered gates.
		var sel []netlist.ID
		for i := range c.Nodes {
			if c.Nodes[i].Kind.IsGate() && len(sel) < 3 && i%7 == 3 {
				sel = append(sel, netlist.ID(i))
			}
		}
		if len(sel) == 0 {
			continue
		}
		h, err := TMR(c, sel)
		if err != nil {
			t.Fatal(err)
		}
		spC, err := exact.SignalProb(c)
		if err != nil {
			t.Fatal(err)
		}
		spH, err := exact.SignalProb(h)
		if err != nil {
			t.Fatal(err)
		}
		// Equivalence check via exact signal probabilities of the POs plus
		// bitwise simulation on shared random vectors.
		for i, po := range c.POs {
			hpo := h.POs[i]
			if math.Abs(spC[po]-spH[hpo]) > 1e-12 {
				t.Fatalf("seed %d: PO %s SP changed: %v -> %v",
					seed, c.NameOf(po), spC[po], spH[hpo])
			}
		}
		ec, eh := simulate.NewEngine(c), simulate.NewEngine(h)
		src := simulate.NewVectorSource(seed, nil)
		for trial := 0; trial < 20; trial++ {
			for _, s := range c.Sources() {
				w := src.Word(s)
				ec.SetSource(s, w)
				eh.SetSource(h.ByName(c.NameOf(s)), w)
			}
			ec.Run()
			eh.Run()
			for i, po := range c.POs {
				if ec.Value(po) != eh.Value(h.POs[i]) {
					t.Fatalf("seed %d: outputs diverge at PO %s", seed, c.NameOf(po))
				}
			}
		}
	}
}

// TestTMRMasksProtectedGate: an SEU in the protected gate (or either
// replica) is structurally masked — exact P_sensitized drops to 0 — while
// the EPP approximation stays conservative (it cannot see that the replicas
// carry identical values, so it reports a non-negative estimate).
func TestTMRMasksProtectedGate(t *testing.T) {
	c := sample(t)
	g1 := c.ByName("g1")
	h, err := TMR(c, []netlist.ID{g1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g1", "g1_r1", "g1_r2"} {
		p, err := exact.PSensitized(h, h.ByName(name))
		if err != nil {
			t.Fatal(err)
		}
		if p != 0 {
			t.Errorf("protected copy %s: exact P_sens = %v, want 0", name, p)
		}
	}
	// Voter output is a new single point of failure (as in real TMR).
	p, err := exact.PSensitized(h, h.ByName("g1_v"))
	if err != nil {
		t.Fatal(err)
	}
	if p == 0 {
		t.Error("voter output should remain sensitizable")
	}
	// EPP is conservative on the protected copies (documented limitation:
	// replica correlation is invisible to the independence assumption), so
	// its estimate stays at or above the exact value of 0.
	rep, err := ser.Run(context.Background(), h, ser.Config{Method: ser.MethodEPP, Workers: 1, SP: sigprob.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes[h.ByName("g1")].PSensitized < 0 {
		t.Error("EPP returned negative probability")
	}
}

// TestTMRCascadedProtection: two protected gates in series still mask a
// single fault in either one (the replica-rewiring subtlety).
func TestTMRCascadedProtection(t *testing.T) {
	c := sample(t)
	h, err := TMR(c, []netlist.ID{c.ByName("g1"), c.ByName("g2")})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g1", "g1_r1", "g1_r2", "g2", "g2_r1", "g2_r2"} {
		p, err := exact.PSensitized(h, h.ByName(name))
		if err != nil {
			t.Fatal(err)
		}
		if p != 0 {
			t.Errorf("cascaded: %s exact P_sens = %v, want 0", name, p)
		}
	}
	// g2's replicas must read g1's voter, not g1 directly.
	r1 := h.Node(h.ByName("g2_r1"))
	if h.NameOf(r1.Fanin[0]) != "g1_v" {
		t.Errorf("g2_r1 reads %s, want g1_v", h.NameOf(r1.Fanin[0]))
	}
}

// TestTMRReducesLogicSER: end-to-end — transform, re-estimate with the
// Monte Carlo method (which sees the masking), and compare. The textbook
// caveat applies and is asserted both ways: counting the (soft) voter gates
// as new error sites, local TMR may *increase* total SER — the voter output
// inherits the original's full observability — so the protected-logic SER
// (total minus voter contributions, i.e. assuming a rad-hard voter as real
// designs use) must drop, and the replicas must contribute exactly nothing.
func TestTMRReducesLogicSER(t *testing.T) {
	c := gen.SmallRandom(71)
	cfg := ser.Config{Method: ser.MethodMonteCarlo, MC: simulate.MCOptions{Vectors: 2048, Seed: 5}}
	before, err := ser.Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Protect the top-3 gates by measured SER.
	var sel []netlist.ID
	for _, n := range before.Ranked() {
		if c.Node(n.ID).Kind.IsGate() && len(sel) < 3 {
			sel = append(sel, n.ID)
		}
	}
	h, err := TMR(c, sel)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ser.Run(context.Background(), h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	voterFIT := 0.0
	isVoter := func(name string) bool {
		for _, suf := range []string{"_v", "_v1", "_v2", "_v3"} {
			if strings.HasSuffix(name, suf) {
				return true
			}
		}
		return false
	}
	for _, n := range after.Nodes {
		if isVoter(n.Name) {
			voterFIT += n.SERFIT
		}
		// Protected originals and replicas are structurally masked.
		for _, s := range sel {
			base := c.NameOf(s)
			if n.Name == base || n.Name == base+"_r1" || n.Name == base+"_r2" {
				if n.PSensitized > 0.02 { // MC noise floor at 2048 vectors
					t.Errorf("protected copy %s still sensitized: %v", n.Name, n.PSensitized)
				}
			}
		}
	}
	logicFIT := after.TotalFIT - voterFIT
	t.Logf("SER before %.4g FIT; after TMR: total %.4g (soft voter), logic-only %.4g (rad-hard voter)",
		before.TotalFIT, after.TotalFIT, logicFIT)
	if logicFIT >= before.TotalFIT {
		t.Errorf("rad-hard-voter TMR did not reduce SER: %v -> %v", before.TotalFIT, logicFIT)
	}
}

// TestTMRSequentialCircuit: protecting a gate that feeds a flip-flop must
// rewire the DFF's D input through the voter, preserve the FF population
// (IDs and names), and leave the single-frame transfer function — primary
// outputs AND every FF's next state — unchanged for shared source vectors.
func TestTMRSequentialCircuit(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		c := gen.SmallRandomSequential(seed + 40)
		// Pick a gate feeding a DFF, the sequential-specific rewire case.
		var target netlist.ID = netlist.InvalidID
		for _, ff := range c.FFs {
			if d := c.Node(ff).Fanin[0]; c.Node(d).Kind.IsGate() {
				target = d
				break
			}
		}
		if target == netlist.InvalidID {
			continue // every FF reads a source directly; nothing to test here
		}
		h, err := TMR(c, []netlist.ID{target})
		if err != nil {
			t.Fatal(err)
		}
		if h.N() != c.N()+Overhead(1) {
			t.Fatalf("seed %d: node count %d, want %d", seed, h.N(), c.N()+Overhead(1))
		}
		if len(h.FFs) != len(c.FFs) {
			t.Fatalf("seed %d: FF count changed: %d -> %d", seed, len(c.FFs), len(h.FFs))
		}
		voter := h.ByName(c.NameOf(target) + "_v")
		for i, ff := range c.FFs {
			if h.FFs[i] != ff || h.NameOf(h.FFs[i]) != c.NameOf(ff) {
				t.Fatalf("seed %d: FF %d no longer preserved", seed, ff)
			}
			if c.Node(ff).Fanin[0] == target && h.Node(ff).Fanin[0] != voter {
				t.Errorf("seed %d: DFF %s still reads the protected gate, not its voter",
					seed, c.NameOf(ff))
			}
		}
		// Single-frame transfer function: treat FFs as sources, compare the
		// observation points (POs and next-state D inputs) bit for bit.
		ec, eh := simulate.NewEngine(c), simulate.NewEngine(h)
		src := simulate.NewVectorSource(seed, nil)
		for trial := 0; trial < 10; trial++ {
			for _, s := range c.Sources() {
				w := src.Word(s)
				ec.SetSource(s, w)
				eh.SetSource(s, w) // source IDs are preserved by TMR
			}
			ec.Run()
			eh.Run()
			for i, po := range c.POs {
				if ec.Value(po) != eh.Value(h.POs[i]) {
					t.Fatalf("seed %d: outputs diverge at PO %s", seed, c.NameOf(po))
				}
			}
			for _, ff := range c.FFs {
				if ec.Value(c.Node(ff).Fanin[0]) != eh.Value(h.Node(ff).Fanin[0]) {
					t.Fatalf("seed %d: next state diverges at FF %s", seed, c.NameOf(ff))
				}
			}
		}
	}
}

// TestTMREmptySelection: no selection is a (validated) copy, not an error —
// the optimizer relies on the k=0 boundary of the Overhead accounting.
func TestTMREmptySelection(t *testing.T) {
	c := sample(t)
	h, err := TMR(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != c.N() {
		t.Errorf("empty selection changed node count: %d -> %d", c.N(), h.N())
	}
}

func TestTMRRejectsNonGates(t *testing.T) {
	c := sample(t)
	if _, err := TMR(c, []netlist.ID{c.ByName("a")}); err == nil {
		t.Error("input accepted for TMR")
	}
	if _, err := TMR(c, []netlist.ID{999}); err == nil {
		t.Error("invalid ID accepted")
	}
}

func TestTMRDuplicateSelectionIdempotent(t *testing.T) {
	c := sample(t)
	g1 := c.ByName("g1")
	h, err := TMR(c, []netlist.ID{g1, g1})
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != c.N()+Overhead(1) {
		t.Errorf("duplicate selection duplicated hardware: %d nodes", h.N())
	}
}
