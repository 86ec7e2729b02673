package ser

import (
	"context"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/seq"
	"repro/internal/sigprob"
	"repro/internal/simulate"
)

func sample(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(`
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
g1 = AND(a, b)
g2 = OR(g1, c)
y = NOT(g2)
q = DFF(g1)
`)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEstimateEPPBasics(t *testing.T) {
	c := sample(t)
	rep, err := Run(context.Background(), c, Config{Method: MethodEPP})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != c.N() {
		t.Fatalf("nodes = %d", len(rep.Nodes))
	}
	if rep.TotalFIT <= 0 {
		t.Fatalf("total FIT = %v", rep.TotalFIT)
	}
	// Inputs contribute nothing (R_SEU = 0).
	if rep.Nodes[c.ByName("a")].SERFIT != 0 {
		t.Error("input has nonzero SER")
	}
	// Every gate's SER is the product of its three factors.
	for _, n := range rep.Nodes {
		want := n.RateFIT * n.PLatched * n.PSensitized
		if math.Abs(n.SERFIT-want) > 1e-18 {
			t.Fatalf("node %s: SER %v != product %v", n.Name, n.SERFIT, want)
		}
		if n.PSensitized < 0 || n.PSensitized > 1 || n.PLatched < 0 || n.PLatched > 1 {
			t.Fatalf("node %s: probabilities out of range: %+v", n.Name, n)
		}
	}
}

func TestEPPvsMonteCarloAgree(t *testing.T) {
	c := gen.SmallRandom(11)
	epp, err := Run(context.Background(), c, Config{Method: MethodEPP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Run(context.Background(), c, Config{
		Method: MethodMonteCarlo,
		MC:     simulate.MCOptions{Vectors: 1 << 14, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if epp.TotalFIT <= 0 || mc.TotalFIT <= 0 {
		t.Fatal("degenerate totals")
	}
	rel := math.Abs(epp.TotalFIT-mc.TotalFIT) / mc.TotalFIT
	t.Logf("total SER: EPP %.4g FIT, MC %.4g FIT, rel diff %.3f", epp.TotalFIT, mc.TotalFIT, rel)
	if rel > 0.15 {
		t.Errorf("EPP and MC totals differ by %v (> 15%%)", rel)
	}
}

func TestRankedOrdering(t *testing.T) {
	c := sample(t)
	rep, err := Run(context.Background(), c, Config{Method: MethodEPP})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Ranked()
	for i := 1; i < len(r); i++ {
		if r[i-1].SERFIT < r[i].SERFIT {
			t.Fatalf("ranking not descending at %d", i)
		}
	}
	// TopK truncates.
	if got := rep.TopK(3); len(got) != 3 {
		t.Fatalf("TopK(3) = %d entries", len(got))
	}
	if got := rep.TopK(1000); len(got) != c.N() {
		t.Fatalf("TopK(1000) = %d entries", len(got))
	}
}

func TestHardening(t *testing.T) {
	c := gen.SmallRandom(13)
	rep, err := Run(context.Background(), c, Config{Method: MethodEPP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Perfect protection of everything removes all SER.
	all := rep.Harden(c.N(), 0)
	if math.Abs(all.AfterFIT) > rep.TotalFIT*1e-12 {
		t.Errorf("full hardening leaves %v FIT", all.AfterFIT)
	}
	// Protecting top-5 helps at least as much as top-1.
	h1, h5 := rep.Harden(1, 0), rep.Harden(5, 0)
	if h5.AfterFIT > h1.AfterFIT+1e-15 {
		t.Errorf("protecting more nodes increased SER: %v vs %v", h5.AfterFIT, h1.AfterFIT)
	}
	// Residual softens the benefit.
	hSoft := rep.Harden(5, 0.5)
	if hSoft.AfterFIT < h5.AfterFIT {
		t.Errorf("residual 0.5 cannot beat perfect protection")
	}
	if h5.ReductionPct < 0 || h5.ReductionPct > 100 {
		t.Errorf("reduction = %v%%", h5.ReductionPct)
	}
}

func TestHardenResidualClamped(t *testing.T) {
	c := sample(t)
	rep, err := Run(context.Background(), c, Config{Method: MethodEPP})
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Harden(2, -1)
	b := rep.Harden(2, 0)
	if a.AfterFIT != b.AfterFIT {
		t.Error("negative residual not clamped to 0")
	}
	x := rep.Harden(2, 2)
	if x.AfterFIT != rep.TotalFIT {
		t.Error("residual > 1 not clamped to 1 (no-op)")
	}
}

func TestWorkersConsistency(t *testing.T) {
	c := gen.SmallRandom(17)
	serial, err := Run(context.Background(), c, Config{Method: MethodEPP, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), c, Config{Method: MethodEPP, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for id := range serial.Nodes {
		if serial.Nodes[id].SERFIT != parallel.Nodes[id].SERFIT {
			t.Fatalf("node %d: serial %v, parallel %v",
				id, serial.Nodes[id].SERFIT, parallel.Nodes[id].SERFIT)
		}
	}
}

func TestSPMethodAblation(t *testing.T) {
	c := gen.SmallRandom(19)
	topo, err := Run(context.Background(), c, Config{Method: MethodEPP, SPMethod: SPTopological, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Run(context.Background(), c, Config{Method: MethodEPP, SPMethod: SPMonteCarlo, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Different SP sources give close but not necessarily equal totals.
	rel := math.Abs(topo.TotalFIT-mc.TotalFIT) / mc.TotalFIT
	if rel > 0.2 {
		t.Errorf("SP ablation diverges: %v vs %v", topo.TotalFIT, mc.TotalFIT)
	}
}

// TestMultiCycleFrames: Frames > 1 follows errors through flip-flops; the
// per-node vector must match the seq analyzer directly, and totals must be
// at least the PO-only single-frame totals.
func TestMultiCycleFrames(t *testing.T) {
	c := gen.MustRandom(gen.Params{Name: "mcf", Seed: 51, PIs: 8, POs: 3, FFs: 8, Gates: 120})
	rep, err := Run(context.Background(), c, Config{Method: MethodEPP, Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	p4 := make([]float64, c.N())
	for id, n := range rep.Nodes {
		p4[id] = n.PSensitized
	}
	sa, err := seq.New(c, sigprob.Topological(c, sigprob.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < c.N(); id++ {
		want := sa.PDetect(netlist.ID(id), 4)
		if math.Abs(p4[id]-want) > 1e-12 {
			t.Fatalf("node %d: Frames=4 vector %v, seq %v", id, p4[id], want)
		}
		// Frames=1 (single-cycle P_sensitized) counts FF D inputs as
		// detections, so it can exceed the 4-frame PO-only probability; but
		// the PO-only 1-frame value never exceeds the 4-frame one.
		if sa.PDetect(netlist.ID(id), 1) > p4[id]+1e-12 {
			t.Fatalf("node %d: more frames decreased PO detection", id)
		}
	}
}

func TestMethodStrings(t *testing.T) {
	if MethodEPP.String() != "epp" || MethodMonteCarlo.String() != "monte-carlo" {
		t.Error("Method names changed")
	}
	if SPTopological.String() != "topological" || SPMonteCarlo.String() != "monte-carlo" {
		t.Error("SPMethod names changed")
	}
}

func TestInvalidModelsRejected(t *testing.T) {
	c := sample(t)
	bad := Config{Method: MethodEPP}
	fm := faults.Default()
	fm.FluxPerCm2Hour = -1
	bad.Faults = &fm
	if _, err := Run(context.Background(), c, bad); err == nil {
		t.Error("invalid faults model accepted")
	}
}

// TestPrepareResolvesSPOnce: Prepare and Assemble leave the signal
// probability vector unresolved, Info resolves it, and every later step
// sweeps with that same backing array; one step's request settings never
// leak into the next.
func TestPrepareResolvesSPOnce(t *testing.T) {
	c := gen.SmallRandom(23)
	ctx := context.Background()
	cfg := Config{SPMethod: SPMonteCarlo, SP: sigprob.Config{Vectors: 1024, Seed: 5}, Workers: 2}
	p, err := Prepare(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.req.SP != nil {
		t.Fatal("Prepare resolved the SP vector")
	}
	if _, err := p.Assemble(make([]float64, c.N())); err != nil {
		t.Fatal(err)
	}
	if p.req.SP != nil {
		t.Fatal("Assemble resolved the SP vector")
	}
	info := p.Info()
	if p.req.SP == nil {
		t.Fatal("Info did not resolve the SP vector")
	}
	sp := &p.req.SP[0]
	same := func(step string) {
		t.Helper()
		if req := p.request(); &p.req.SP[0] != sp || &req.SP[0] != sp {
			t.Fatalf("after %s the SP vector is a new array", step)
		}
		if p.req.Workers != 2 || p.req.OrderedSweep || p.req.OnBatch != nil || p.req.SiteLo != 0 || p.req.SiteHi != 0 {
			t.Fatalf("after %s the request template changed: %+v", step, p.req)
		}
	}
	rep, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	same("Run")
	lo, hi := 3, c.N()-2
	vals, err := p.Range(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	same("Range")
	for i, v := range vals {
		if v != rep.Nodes[lo+i].PSensitized {
			t.Fatalf("Range node %d: %v, Run %v", lo+i, v, rep.Nodes[lo+i].PSensitized)
		}
	}
	id := 0
	for ns, err := range p.Stream(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if ns != rep.Nodes[id] {
			t.Fatalf("Stream node %d: %+v, Run %+v", id, ns, rep.Nodes[id])
		}
		id++
	}
	if id != c.N() {
		t.Fatalf("Stream yielded %d of %d nodes", id, c.N())
	}
	same("Stream")
	if again := p.Info(); again != info {
		t.Fatalf("Info changed: %+v, then %+v", info, again)
	}
	if want, err := Describe(c, cfg); err != nil || want != info {
		t.Fatalf("Describe = %+v, %v; Info %+v", want, err, info)
	}

	// A sampling engine reads no SP vector, so none is resolved.
	mc, err := Prepare(c, Config{Method: MethodMonteCarlo, MC: simulate.MCOptions{Vectors: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if mc.Info(); mc.req.SP != nil {
		t.Fatal("a sampling request resolved an SP vector")
	}
}
