package sersim

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sigprob"
	"repro/internal/simulate"
	"repro/internal/verilog"
)

// TestCrossFormatRoundTrip: a generated circuit survives
// bench -> verilog -> bench with identical structure and identical EPP
// results.
func TestCrossFormatRoundTrip(t *testing.T) {
	c := gen.MustRandom(gen.Params{Name: "xfmt", Seed: 8, PIs: 8, POs: 4, FFs: 4, Gates: 150})

	var vbuf bytes.Buffer
	if err := verilog.Write(&vbuf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := verilog.Parse(&vbuf)
	if err != nil {
		t.Fatal(err)
	}
	var bbuf bytes.Buffer
	if err := bench.Write(&bbuf, c2); err != nil {
		t.Fatal(err)
	}
	c3, err := bench.Parse(&bbuf)
	if err != nil {
		t.Fatal(err)
	}
	if c3.N() != c.N() {
		t.Fatalf("node count drifted: %d -> %d", c.N(), c3.N())
	}

	// EPP results must be identical (by node name) across the round trip.
	spA := sigprob.Topological(c, sigprob.Config{})
	spB := sigprob.Topological(c3, sigprob.Config{})
	anA := core.MustNew(c, spA, core.Options{})
	anB := core.MustNew(c3, spB, core.Options{})
	for i := range c.Nodes {
		name := c.Nodes[i].Name
		idB := c3.ByName(name)
		if idB == netlist.InvalidID {
			t.Fatalf("node %q lost in round trip", name)
		}
		a := anA.EPP(c.Nodes[i].ID).PSensitized
		b := anB.EPP(idB).PSensitized
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("node %q: EPP %v before, %v after round trip", name, a, b)
		}
	}
}

// TestSERPipelineOnParsedCircuit: .bench in, SER report out, with both
// estimators, end to end through the facade.
func TestSERPipelineOnParsedCircuit(t *testing.T) {
	c := gen.MustRandom(gen.Params{Name: "pipe", Seed: 23, PIs: 10, POs: 4, FFs: 6, Gates: 200})
	var buf bytes.Buffer
	if err := bench.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	repE, err := Run(context.Background(), parsed, WithMethod(MethodEPP), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	repM, err := Run(context.Background(), parsed, WithMethod(MethodMonteCarlo), WithVectors(4096), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(repE.TotalFIT-repM.TotalFIT) / repM.TotalFIT
	t.Logf("pipeline totals: EPP %.4g, MC %.4g (rel %.3f)", repE.TotalFIT, repM.TotalFIT, rel)
	if rel > 0.15 {
		t.Errorf("estimators disagree by %.1f%%", 100*rel)
	}
}

// TestNaiveAndBitParallelBaselinesAgree: the two random-simulation
// implementations estimate the same quantity.
func TestNaiveAndBitParallelBaselinesAgree(t *testing.T) {
	c := gen.MustRandom(gen.Params{Name: "base", Seed: 31, PIs: 8, POs: 3, FFs: 2, Gates: 80})
	naive := simulate.NewNaive(c, simulate.MCOptions{Vectors: 8192, Seed: 3})
	bitp := simulate.NewMonteCarlo(c, simulate.MCOptions{Vectors: 8192, Seed: 4})
	for id := 0; id < c.N(); id += 9 {
		a := naive.EPP(netlist.ID(id))
		b := bitp.EPP(netlist.ID(id))
		tol := 5*(a.StdErr+b.StdErr) + 1e-9
		if math.Abs(a.PSensitized-b.PSensitized) > tol {
			t.Errorf("site %d: naive %v, bit-parallel %v (tol %v)",
				id, a.PSensitized, b.PSensitized, tol)
		}
	}
}
