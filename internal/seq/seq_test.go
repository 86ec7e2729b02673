package seq

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sigprob"
	"repro/internal/simulate"
)

func mustParse(t *testing.T, src string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func analyzer(t *testing.T, c *netlist.Circuit) *Analyzer {
	t.Helper()
	a, err := New(c, sigprob.Topological(c, sigprob.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestShiftRegisterLatency: a 3-stage shift register delivers the error to
// the output after exactly 3 more frames; detection probability is a step
// function of the frame budget.
func TestShiftRegisterLatency(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(z)
d0 = BUFF(a)
q0 = DFF(d0)
q1 = DFF(q0)
q2 = DFF(q1)
z  = BUFF(q2)
`)
	a := analyzer(t, c)
	site := c.ByName("d0")
	want := []float64{0, 0, 0, 1, 1} // frames 1..5
	for k := 1; k <= 5; k++ {
		got := a.PDetect(site, k)
		if math.Abs(got-want[k-1]) > 1e-12 {
			t.Errorf("PDetect(d0, %d) = %v, want %v", k, got, want[k-1])
		}
	}
	curve := a.PDetectCurve(site, 5)
	for k := range curve {
		if math.Abs(curve[k]-want[k]) > 1e-12 {
			t.Errorf("curve[%d] = %v, want %v", k, curve[k], want[k])
		}
	}
}

// TestFrameOneMatchesPOOnlyEPP: with a one-frame budget, PDetect counts only
// primary outputs (unlike P_sensitized, which also counts FF D inputs).
func TestFrameOneMatchesPOOnlyEPP(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
g = AND(a, b)
y = BUFF(g)
q = DFF(g)
`)
	a := analyzer(t, c)
	// SEU at g: reaches PO y always through the buffer.
	if got := a.PDetect(c.ByName("g"), 1); got != 1 {
		t.Errorf("PDetect(g, 1) = %v", got)
	}
	// SEU at a: reaches y iff b=1 -> 0.5 in frame 1.
	if got := a.PDetect(c.ByName("a"), 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("PDetect(a, 1) = %v", got)
	}
}

// TestMonotoneInFrames: more frames can only increase detection probability.
func TestMonotoneInFrames(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		c := gen.SmallRandomSequential(seed + 60)
		a := analyzer(t, c)
		for id := 0; id < c.N(); id += 5 {
			curve := a.PDetectCurve(netlist.ID(id), 6)
			for k := 1; k < len(curve); k++ {
				if curve[k] < curve[k-1]-1e-12 {
					t.Fatalf("seed %d site %d: curve not monotone: %v", seed, id, curve)
				}
			}
			for k, p := range curve {
				if p < -1e-12 || p > 1+1e-12 {
					t.Fatalf("seed %d site %d frame %d: p = %v", seed, id, k, p)
				}
			}
		}
	}
}

// TestDeadEndFF: an error captured only by a flip-flop that never reaches a
// primary output is never detected no matter the budget.
func TestDeadEndFF(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
OUTPUT(y)
y = BUFF(a)
d = NOT(a)
q = DFF(d)
sink = NOT(q)
q2 = DFF(sink)
`)
	a := analyzer(t, c)
	// SEU at d: captured by q, which feeds only q2's cone, which feeds no PO.
	for k := 1; k <= 6; k++ {
		if got := a.PDetect(c.ByName("d"), k); got != 0 {
			t.Errorf("PDetect(d, %d) = %v, want 0", k, got)
		}
	}
}

// TestAgainstSequentialSimulator: the analytical multi-cycle extension must
// track two-machine fault-injection simulation on random sequential
// circuits. The analytical model treats FF captures as independent, so the
// comparison uses a loose statistical bound.
func TestAgainstSequentialSimulator(t *testing.T) {
	sumAbs, n := 0.0, 0
	for seed := uint64(0); seed < 5; seed++ {
		c := gen.SmallRandomSequential(seed + 80)
		a := analyzer(t, c)
		for _, frames := range []int{1, 2, 4} {
			sim := simulate.NewSequential(c, simulate.SeqOptions{
				Frames: frames, Trials: 1 << 13, Seed: seed,
			})
			for id := 0; id < c.N(); id += 4 {
				got := a.PDetect(netlist.ID(id), frames)
				ref := sim.PDetect(netlist.ID(id)).PDetect
				sumAbs += math.Abs(got - ref)
				n++
			}
		}
	}
	mean := sumAbs / float64(n)
	t.Logf("multi-cycle EPP vs sequential simulation: mean |diff| = %.4f over %d points", mean, n)
	if mean > 0.08 {
		t.Errorf("mean difference %v exceeds 0.08", mean)
	}
}

// TestExactFrameOneAgainstSimulator: at frames = 1 there is no cross-frame
// correlation, so on a fanout-free path the analytic value is exact.
func TestExactFrameOneAgainstSimulator(t *testing.T) {
	c := mustParse(t, `
INPUT(a)
INPUT(b)
INPUT(cc)
OUTPUT(y)
g1 = AND(a, b)
g2 = OR(g1, cc)
y = BUFF(g2)
`)
	a := analyzer(t, c)
	sim := simulate.NewSequential(c, simulate.SeqOptions{Frames: 1, Trials: 1 << 15, Seed: 3})
	for _, name := range []string{"a", "g1", "g2"} {
		got := a.PDetect(c.ByName(name), 1)
		r := sim.PDetect(c.ByName(name))
		if math.Abs(got-r.PDetect) > 5*r.StdErr+1e-9 {
			t.Errorf("site %s: analytic %v, simulated %v ± %v", name, got, r.PDetect, r.StdErr)
		}
	}
}

// TestPDetectPanicsOnZeroFrames documents the API contract.
func TestPDetectPanicsOnZeroFrames(t *testing.T) {
	c := mustParse(t, "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n")
	a := analyzer(t, c)
	defer func() {
		if recover() == nil {
			t.Error("PDetect(0 frames) did not panic")
		}
	}()
	a.PDetect(c.ByName("a"), 0)
}

// TestWeightedCompositionIdentities pins the latch-window-weighted
// composition's algebra on random sequential circuits: weight 1 reproduces
// the unweighted analysis bit-exactly, weight 0 leaves only the
// through-flip-flop (later-frame) detections, and the estimate is monotone
// nondecreasing in the weight and bounded by the unweighted value.
func TestWeightedCompositionIdentities(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		c := gen.SmallRandomSequential(seed + 140)
		a := analyzer(t, c)
		for _, frames := range []int{1, 2, 4} {
			for id := 0; id < c.N(); id++ {
				site := netlist.ID(id)
				plain := a.PDetect(site, frames)
				if w1 := a.PDetectWeighted(site, frames, 1); w1 != plain {
					t.Fatalf("seed %d frames %d site %d: weight 1 %v != PDetect %v (must be bit-exact)",
						seed, frames, id, w1, plain)
				}
				prev := -1.0
				for _, w := range []float64{0, 0.18, 0.5, 0.97, 1} {
					pw := a.PDetectWeighted(site, frames, w)
					if pw < 0 || pw > plain+1e-15 {
						t.Fatalf("seed %d frames %d site %d weight %v: %v outside [0, %v]",
							seed, frames, id, w, pw, plain)
					}
					if pw < prev-1e-15 {
						t.Fatalf("seed %d frames %d site %d: not monotone in weight (%v after %v)",
							seed, frames, id, pw, prev)
					}
					prev = pw
				}
				if frames == 1 {
					if z := a.PDetectWeighted(site, 1, 0); z != 0 {
						t.Fatalf("seed %d site %d: frames=1 weight 0 gives %v, want 0 (strike-only analysis)",
							seed, id, z)
					}
				}
			}
		}
	}
}

// TestLookaheadShared: one Lookahead, built once, serves strike sweeps from
// several goroutines at once (each with its own core analyzer) and returns
// exactly the per-site Analyzer's curve at every frame budget it covers, as
// does a shallower lookahead built at another batch width.
func TestLookaheadShared(t *testing.T) {
	c := gen.SmallRandomSequential(17)
	sp := sigprob.Topological(c, sigprob.Config{})
	const frames = 4
	la := NewLookahead(core.MustNew(c, sp, core.Options{BatchWidth: 5}), frames)
	shallow := NewLookahead(core.MustNew(c, sp, core.Options{}), 2)
	if la.Frames() != frames || shallow.Frames() != 2 {
		t.Fatalf("Frames() = %d and %d, want %d and 2", la.Frames(), shallow.Frames(), frames)
	}
	a := analyzer(t, c)
	curves := make([][]float64, c.N())
	for id := range curves {
		curves[id] = a.PDetectCurve(netlist.ID(id), frames)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			an := core.MustNew(c, sp, core.Options{})
			for id := g; id < c.N(); id += 4 {
				res := an.EPP(netlist.ID(id))
				for k := 1; k <= frames; k++ {
					got := la.PDetect(&res, k, 1)
					if k <= shallow.Frames() && shallow.PDetect(&res, k, 1) != got || got != curves[id][k-1] {
						errs <- fmt.Sprintf("site %d frames %d: shared lookahead %v, Analyzer %v", id, k, got, curves[id][k-1])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestWeightedPanicsOnBadWeight: out-of-range weights are programming
// errors, rejected loudly.
func TestWeightedPanicsOnBadWeight(t *testing.T) {
	c := gen.SmallRandomSequential(5)
	a := analyzer(t, c)
	for _, w := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weight %v accepted", w)
				}
			}()
			a.PDetectWeighted(0, 2, w)
		}()
	}
}
