package sersim

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// TestFacadeEndToEnd exercises the public API surface the way the README's
// quickstart describes it: parse, signal probabilities, one EPP query, full
// estimate, serialization.
func TestFacadeEndToEnd(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
g = NAND(a, b)
y = NOT(g)
q = DFF(y)
`
	c, err := ParseBenchString(src)
	if err != nil {
		t.Fatal(err)
	}
	sp := SignalProbabilities(c, SPConfig{})
	// y = AND(a,b) effectively: SP 0.25.
	if math.Abs(sp[c.ByName("y")]-0.25) > 1e-12 {
		t.Errorf("SP(y) = %v", sp[c.ByName("y")])
	}

	an, err := NewAnalyzer(c, sp, AnalyzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := an.EPP(c.ByName("g"))
	// g reaches y (PO) always (inverter) and q's D (y) — P_sensitized = 1?
	// g -> y via NOT: always propagates. So 1.
	if res.PSensitized != 1 {
		t.Errorf("PSensitized(g) = %v", res.PSensitized)
	}

	rep, err := Run(context.Background(), c, WithMethod(MethodEPP))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFIT <= 0 {
		t.Errorf("TotalFIT = %v", rep.TotalFIT)
	}
	if len(rep.TopK(2)) != 2 {
		t.Error("TopK failed")
	}

	var buf bytes.Buffer
	if err := WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NAND(a, b)") {
		t.Errorf("serialized netlist missing gate:\n%s", buf.String())
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := NewBuilder("fac")
	x := b.Input("x")
	y := b.Not("y", x)
	b.MarkOutput(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 2 {
		t.Errorf("N = %d", c.N())
	}
}

func TestFacadeGenerateProfile(t *testing.T) {
	c, err := GenerateProfile("s953")
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Gates != 395 {
		t.Errorf("s953 gates = %d", c.Stats().Gates)
	}
	if _, err := GenerateProfile("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestFacadeExactAndMultiCycle covers the exact-analysis and sequential
// wrappers on the majority-voter testdata circuit.
func TestFacadeExactAndMultiCycle(t *testing.T) {
	c, err := ParseBenchFile("testdata/majority.bench")
	if err != nil {
		t.Fatal(err)
	}
	a := c.ByName("a")

	enum, err := EnumeratePSensitized(c, a)
	if err != nil {
		t.Fatal(err)
	}
	bddVal, err := ExactPSensitized(c, a, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(enum-bddVal) > 1e-12 {
		t.Errorf("enumeration %v != BDD %v", enum, bddVal)
	}
	if enum != 0.5 {
		t.Errorf("majority voter P_sens(a) = %v, want 0.5", enum)
	}

	spExact, err := ExactSignalProbabilities(c, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if spExact[c.ByName("maj")] != 0.5 {
		t.Errorf("exact SP(maj) = %v", spExact[c.ByName("maj")])
	}

	mca, err := NewMultiCycleAnalyzer(c, spExact)
	if err != nil {
		t.Fatal(err)
	}
	// maj is the PO. The analytical PDetect uses EPP, which on this
	// reconvergent voter overestimates (a feeds both the ab and ac product
	// terms): expect it near, not equal to, the exact 0.5.
	if got := mca.PDetect(a, 1); math.Abs(got-0.5) > 0.1 {
		t.Errorf("PDetect(a, 1) = %v, want ≈0.5", got)
	}
	sim := NewSequentialMC(c, SeqOptions{Frames: 1, Trials: 1 << 14, Seed: 4})
	r := sim.PDetect(a)
	if math.Abs(r.PDetect-0.5) > 5*r.StdErr+1e-9 {
		t.Errorf("sequential MC PDetect = %v ± %v, want 0.5", r.PDetect, r.StdErr)
	}
}

func TestFacadeMonteCarloAgreesWithEPP(t *testing.T) {
	c, err := GenerateProfile("s953")
	if err != nil {
		t.Fatal(err)
	}
	sp := SignalProbabilitiesMC(c, SPConfig{Vectors: 1 << 14, Seed: 2})
	an, err := NewAnalyzer(c, sp, AnalyzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(c, MCOptions{Vectors: 1 << 13, Seed: 5})
	// Spot-check a handful of sites.
	sumAbs, n := 0.0, 0
	for id := ID(0); int(id) < c.N(); id += 37 {
		sumAbs += math.Abs(an.EPP(id).PSensitized - mc.EPP(id).PSensitized)
		n++
	}
	if mean := sumAbs / float64(n); mean > 0.1 {
		t.Errorf("facade EPP vs MC mean |diff| = %v over %d sites", mean, n)
	}
}
