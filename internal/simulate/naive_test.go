package simulate_test

import (
	"math"
	"repro/internal/bench"
	"strings"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netlist"
	. "repro/internal/simulate"
)

func mustParse(t *testing.T, src string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNaiveConvergesToExact: the paper-era scalar baseline estimates the
// same quantity as exhaustive enumeration. (External test package: exact
// imports simulate, so this test cannot live in-package.)
func TestNaiveConvergesToExact(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		c := gen.SmallRandom(seed + 200)
		naive := NewNaive(c, MCOptions{Vectors: 1 << 13, Seed: seed})
		for id := 0; id < c.N(); id += 5 {
			truth, err := exact.PSensitized(c, netlist.ID(id))
			if err != nil {
				t.Fatal(err)
			}
			r := naive.EPP(netlist.ID(id))
			if math.Abs(r.PSensitized-truth) > 5*r.StdErr+1e-9 {
				t.Errorf("seed %d site %d: naive %v, exact %v (±%v)",
					seed, id, r.PSensitized, truth, r.StdErr)
			}
		}
	}
}

// TestNaiveDeterminism.
func TestNaiveDeterminism(t *testing.T) {
	c := gen.SmallRandom(7)
	site := netlist.ID(c.N() - 1)
	a := NewNaive(c, MCOptions{Vectors: 1024, Seed: 5}).EPP(site)
	b := NewNaive(c, MCOptions{Vectors: 1024, Seed: 5}).EPP(site)
	if a.Detected != b.Detected {
		t.Fatalf("same seed, different counts: %d vs %d", a.Detected, b.Detected)
	}
}

// TestNaiveRespectsBias: with P(side input = 1) = 1, a flip through an AND
// always propagates.
func TestNaiveRespectsBias(t *testing.T) {
	c := mustParse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
	prob := make([]float64, c.N())
	prob[c.ByName("a")] = 0.5
	prob[c.ByName("b")] = 1.0
	naive := NewNaive(c, MCOptions{Vectors: 512, Seed: 2, SourceProb: prob})
	if r := naive.EPP(c.ByName("a")); r.PSensitized != 1 {
		t.Errorf("biased naive: %v, want 1", r.PSensitized)
	}
}

// TestMCResultString: diagnostic rendering carries the key fields.
func TestMCResultString(t *testing.T) {
	r := MCResult{Site: 3, PSensitized: 0.25, StdErr: 0.01, Vectors: 1024, Detected: 256}
	s := r.String()
	for _, frag := range []string{"site 3", "0.25", "256/1024"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

// TestFaultyValue: after FaultySim the faulty value of the site is the
// complement of the good value, and off-cone values are untouched.
func TestFaultyValue(t *testing.T) {
	c := mustParse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ng = AND(a, b)\ny = NOT(g)\n")
	eng := NewEngine(c)
	eng.SetSource(c.ByName("a"), 0xDEADBEEF)
	eng.SetSource(c.ByName("b"), 0x12345678)
	eng.Run()
	w := graph.NewWalker(c)
	cone := w.ForwardCone(c.ByName("g"))
	eng.FaultySim(&cone)
	if eng.FaultyValue(c.ByName("g")) != ^eng.Value(c.ByName("g")) {
		t.Error("site not complemented in the faulty machine")
	}
	if eng.FaultyValue(c.ByName("y")) != eng.Value(c.ByName("g")) {
		t.Error("faulty value did not propagate through the inverter")
	}
}
