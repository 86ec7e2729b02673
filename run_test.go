package sersim

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestRunStreamMatchesRun: the streamed NodeSER sequence is exactly the
// report's Nodes slice, in ID order — for the default engine, a worker-
// parallel run, the Monte Carlo engine, and a multi-cycle sweep.
func TestRunStreamMatchesRun(t *testing.T) {
	c, err := GenerateProfile("s953")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"parallel", []Option{WithWorkers(4)}},
		{"monte-carlo", []Option{WithMethod(MethodMonteCarlo), WithVectors(256), WithSeed(9)}},
		{"frames", []Option{WithFrames(3)}},
		{"frames+mc", []Option{WithEngine("monte-carlo"), WithFrames(3), WithVectors(256), WithSeed(9)}},
		{"frames+latch", []Option{WithFrames(3), WithLatchModel(DefaultLatchModel())}},
		{"frames+latch+mc", []Option{WithEngine("monte-carlo"), WithFrames(3),
			WithLatchModel(DefaultLatchModel()), WithVectors(256), WithSeed(9)}},
		{"scalar-engine", []Option{WithEngine("epp-scalar")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(context.Background(), c, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for n, err := range RunStream(context.Background(), c, tc.opts...) {
				if err != nil {
					t.Fatal(err)
				}
				if i >= len(rep.Nodes) {
					t.Fatalf("stream yielded more than %d nodes", len(rep.Nodes))
				}
				if n != rep.Nodes[i] {
					t.Fatalf("node %d: stream %+v != run %+v", i, n, rep.Nodes[i])
				}
				i++
			}
			if i != len(rep.Nodes) {
				t.Fatalf("stream yielded %d nodes, want %d", i, len(rep.Nodes))
			}
		})
	}
}

// TestRunStreamEarlyBreak: breaking out of the loop stops the sweep without
// surfacing an error.
func TestRunStreamEarlyBreak(t *testing.T) {
	c, err := GenerateProfile("s953")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, err := range RunStream(context.Background(), c) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		if seen == 10 {
			break
		}
	}
	if seen != 10 {
		t.Fatalf("consumed %d nodes, want 10", seen)
	}
}

// TestRunCancellation: a cancelled context surfaces context.Canceled from
// Run, and mid-stream cancellation ends RunStream with ctx.Err() without
// draining the remaining nodes.
func TestRunCancellation(t *testing.T) {
	c, err := GenerateProfile("s1196")
	if err != nil {
		t.Fatal(err)
	}
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := Run(pre, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: err = %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	var final error
	for n, err := range RunStream(ctx, c) {
		if err != nil {
			final = err
			if n != (NodeSER{}) {
				t.Errorf("error yield carried non-zero NodeSER %+v", n)
			}
			continue
		}
		seen++
		if seen == 70 { // past the first batch: cancellation hits between batches
			cancel()
		}
	}
	if !errors.Is(final, context.Canceled) {
		t.Fatalf("stream final err = %v, want context.Canceled", final)
	}
	if seen >= c.N() {
		t.Fatalf("stream drained all %d nodes despite cancellation", c.N())
	}
}

// TestOptionValidation: contradictory or out-of-range options fail with
// descriptive errors before any work starts.
func TestOptionValidation(t *testing.T) {
	c, err := ParseBenchString(`
INPUT(a)
OUTPUT(y)
y = NOT(a)
`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"negative-workers", []Option{WithWorkers(-2)}, "Workers"},
		{"negative-frames", []Option{WithFrames(-1)}, "Frames"},
		{"negative-vectors", []Option{WithMethod(MethodMonteCarlo), WithVectors(-5)}, "Vectors"},
		{"bias-range", []Option{WithSourceBias([]float64{1.5, 0})}, "outside [0,1]"},
		{"bias-length", []Option{WithSourceBias([]float64{0.5})}, "entries"},
		{"unknown-engine", []Option{WithEngine("warp")}, "unknown engine"},
		{"method-vs-engine", []Option{WithMethod(MethodMonteCarlo), WithEngine("epp-batch")}, "contradicts"},
		{"epp-vs-mc-engine", []Option{WithMethod(MethodEPP), WithEngine("monte-carlo")}, "contradicts"},
		{"frames-on-exact", []Option{WithEngine("enum"), WithFrames(2)}, "Frames"},
		{"batch-width", []Option{WithBatchWidth(65)}, "BatchWidth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(context.Background(), c, tc.opts...)
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %q, want mention of %q", err, tc.want)
			}
			// RunStream must reject identically, via its first yield.
			var streamErr error
			for _, err := range RunStream(context.Background(), c, tc.opts...) {
				streamErr = err
			}
			if streamErr == nil || streamErr.Error() != err.Error() {
				t.Fatalf("stream err = %v, run err = %v", streamErr, err)
			}
		})
	}
}

// TestMultiCycleMonteCarlo is the acceptance test for the multi-cycle Monte
// Carlo engine at the public surface: WithFrames composes with
// WithEngine("monte-carlo"), the per-node probabilities agree with the
// ground-truth sequential simulator within statistical tolerance, and
// results are bit-identical across worker counts.
func TestMultiCycleMonteCarlo(t *testing.T) {
	c, err := ParseBenchString(`
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
g1 = AND(a, b)
g2 = XOR(g1, c)
q1 = DFF(g2)
q2 = DFF(q1)
g3 = OR(q2, g1)
z = NAND(g3, q1)
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const frames, vectors = 4, 1 << 13
	rep, err := Run(ctx, c, WithEngine("monte-carlo"), WithFrames(frames),
		WithVectors(vectors), WithSeed(5), WithWorkers(1))
	if err != nil {
		t.Fatalf("Run(monte-carlo, frames=%d): %v", frames, err)
	}
	sim := NewSequentialMC(c, SeqOptions{Frames: frames, Trials: vectors, Seed: 42})
	for id := range rep.Nodes {
		ref := sim.PDetect(ID(id))
		got := rep.Nodes[id].PSensitized
		tol := 10*ref.StdErr + 0.02
		if d := got - ref.PDetect; d > tol || d < -tol {
			t.Errorf("node %d: monte-carlo frames=%d %v, sequential sim %v (|diff| > %v)",
				id, frames, got, ref.PDetect, tol)
		}
	}
	par, err := Run(ctx, c, WithEngine("monte-carlo"), WithFrames(frames),
		WithVectors(vectors), WithSeed(5), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for id := range rep.Nodes {
		if par.Nodes[id] != rep.Nodes[id] {
			t.Fatalf("node %d: workers=4 %+v != workers=1 %+v", id, par.Nodes[id], rep.Nodes[id])
		}
	}
}

// TestParseRoundTrip: ParseMethod/ParseSPMethod invert String, giving one
// canonical naming end to end.
func TestParseRoundTrip(t *testing.T) {
	for _, m := range []Method{MethodEPP, MethodMonteCarlo} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, m := range []SPMethod{SPTopological, SPMonteCarlo} {
		got, err := ParseSPMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseSPMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("exact"); err == nil {
		t.Error("ParseMethod accepted unknown name")
	}
	if _, err := ParseSPMethod("epp"); err == nil {
		t.Error("ParseSPMethod accepted unknown name")
	}
}

// TestEnginesListed: the registry surface the CLI exposes.
func TestEnginesListed(t *testing.T) {
	names := Engines()
	want := map[string]bool{"epp-batch": true, "epp-scalar": true, "monte-carlo": true, "enum": true, "bdd": true}
	if len(names) < len(want) {
		t.Fatalf("Engines() = %v", names)
	}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("Engines() = %v, missing %v", names, want)
	}
}

// TestRunWithProgress: the progress callback covers every node exactly once.
func TestRunWithProgress(t *testing.T) {
	c, err := GenerateProfile("s953")
	if err != nil {
		t.Fatal(err)
	}
	last, total := 0, 0
	_, err = Run(context.Background(), c,
		WithWorkers(1),
		WithProgress(func(done, n int) { last, total = done, n }))
	if err != nil {
		t.Fatal(err)
	}
	if last != c.N() || total != c.N() {
		t.Fatalf("final progress %d/%d, want %d/%d", last, total, c.N(), c.N())
	}
}

// TestRunExactEngines: the exact backends are reachable through Run on a
// circuit small enough to enumerate, and agree with each other.
func TestRunExactEngines(t *testing.T) {
	c, err := ParseBenchFile("testdata/majority.bench")
	if err != nil {
		t.Fatal(err)
	}
	repEnum, err := Run(context.Background(), c, WithEngine("enum"))
	if err != nil {
		t.Fatal(err)
	}
	repBDD, err := Run(context.Background(), c, WithEngine("bdd"))
	if err != nil {
		t.Fatal(err)
	}
	for id := range repEnum.Nodes {
		if repEnum.Nodes[id].PSensitized != repBDD.Nodes[id].PSensitized {
			t.Fatalf("node %d: enum %v != bdd %v", id,
				repEnum.Nodes[id].PSensitized, repBDD.Nodes[id].PSensitized)
		}
	}
	if repEnum.Engine != "enum" || repBDD.Engine != "bdd" {
		t.Errorf("engines recorded as %q, %q", repEnum.Engine, repBDD.Engine)
	}
}

// TestWithRules: the rule-set option reaches the engines through the public
// API — the pairwise formulation reproduces the closed-form results, the
// no-polarity ablation diverges on reconvergent circuits, and contradictory
// combinations are rejected.
func TestWithRules(t *testing.T) {
	c, err := ParseBenchFile("testdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := Run(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	pairwise, err := Run(ctx, c, WithRules(RulesPairwise))
	if err != nil {
		t.Fatal(err)
	}
	ablated, err := Run(ctx, c, WithRules(RulesNoPolarity))
	if err != nil {
		t.Fatal(err)
	}
	samePairwise, diverged := true, false
	for id := range base.Nodes {
		dp := base.Nodes[id].PSensitized - pairwise.Nodes[id].PSensitized
		if dp > 1e-9 || dp < -1e-9 {
			samePairwise = false
		}
		da := base.Nodes[id].PSensitized - ablated.Nodes[id].PSensitized
		if da > 1e-9 || da < -1e-9 {
			diverged = true
		}
	}
	if !samePairwise {
		t.Error("WithRules(RulesPairwise) changed results (same math, must agree)")
	}
	if !diverged {
		t.Error("WithRules(RulesNoPolarity) changed nothing on c17 — option not wired through")
	}
	// Scalar engine honors the option too.
	scalar, err := Run(ctx, c, WithEngine("epp-scalar"), WithRules(RulesNoPolarity))
	if err != nil {
		t.Fatal(err)
	}
	for id := range scalar.Nodes {
		d := scalar.Nodes[id].PSensitized - ablated.Nodes[id].PSensitized
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("node %d: scalar ablation %v != batch ablation %v",
				id, scalar.Nodes[id].PSensitized, ablated.Nodes[id].PSensitized)
		}
	}
	// Contradictions fail fast with descriptive errors.
	for _, tc := range []struct {
		name string
		opts []Option
		want string
	}{
		{"rules-on-sampling", []Option{WithMethod(MethodMonteCarlo), WithRules(RulesPairwise)}, "Rules"},
		{"rules-on-exact", []Option{WithEngine("bdd"), WithRules(RulesNoPolarity)}, "Rules"},
		{"rules-multicycle", []Option{WithFrames(4), WithRules(RulesPairwise)}, "single-frame"},
		{"rules-unknown", []Option{WithRules(RuleSet(9))}, "rule set"},
	} {
		_, err := Run(ctx, c, tc.opts...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// ParseRuleSet inverts String for all three sets.
	for _, rs := range []RuleSet{RulesClosedForm, RulesPairwise, RulesNoPolarity} {
		got, err := ParseRuleSet(rs.String())
		if err != nil || got != rs {
			t.Errorf("ParseRuleSet(%q) = %v, %v", rs.String(), got, err)
		}
	}
	if _, err := ParseRuleSet("paper"); err == nil {
		t.Error("ParseRuleSet accepted unknown name")
	}
}

// TestWithLatchModelFramesCompose is the public acceptance test of the
// latch-window-weighted multi-cycle mode: WithLatchModel composes with
// WithFrames (supplying both weights the frame composition), the weighted
// run never exceeds the uncoupled one, a model whose strike weight
// saturates at 1 reproduces the uncoupled composition exactly, and invalid
// models are rejected up front.
func TestWithLatchModelFramesCompose(t *testing.T) {
	c, err := GenerateProfile("s1423") // FF-heavy profile
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const frames = 3
	plain, err := Run(ctx, c, WithFrames(frames))
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := Run(ctx, c, WithFrames(frames), WithLatchModel(DefaultLatchModel()))
	if err != nil {
		t.Fatal(err)
	}
	dropped := false
	for id := range plain.Nodes {
		pw, pp := weighted.Nodes[id].PSensitized, plain.Nodes[id].PSensitized
		if pw > pp+1e-15 {
			t.Fatalf("node %d: weighted P %v exceeds uncoupled %v", id, pw, pp)
		}
		if pw < pp-1e-12 {
			dropped = true
		}
		// The timing window moves inside P_sensitized, so the per-node
		// factor becomes the window-free electrical-masking residual —
		// never below the full static factor, and exactly 1 next to an
		// observation point.
		if weighted.Nodes[id].PLatched < plain.Nodes[id].PLatched-1e-15 {
			t.Fatalf("node %d: residual P_latched %v below static %v",
				id, weighted.Nodes[id].PLatched, plain.Nodes[id].PLatched)
		}
		if weighted.Nodes[id].PLatched > 1 {
			t.Fatalf("node %d: residual P_latched %v above 1", id, weighted.Nodes[id].PLatched)
		}
	}
	if !dropped {
		t.Error("latch weighting changed nothing — coupling not wired through")
	}
	// The window is counted exactly once per path either way, so the two
	// totals must stay on the same scale: the coupled mode only restores
	// weight to through-flip-flop detections (uncoupled over-derates them
	// with the transient window) and derates strike-only transients.
	if weighted.TotalFIT > 8*plain.TotalFIT || plain.TotalFIT > 8*weighted.TotalFIT {
		t.Errorf("totals diverged: weighted %v vs uncoupled %v", weighted.TotalFIT, plain.TotalFIT)
	}

	// A transient as wide as the clock saturates the strike weight at 1:
	// the weighted composition then reproduces the uncoupled one exactly.
	wide := DefaultLatchModel()
	wide.PulseWidthPs = wide.ClockPeriodPs
	saturated, err := Run(ctx, c, WithFrames(frames), WithLatchModel(wide))
	if err != nil {
		t.Fatal(err)
	}
	for id := range plain.Nodes {
		if saturated.Nodes[id].PSensitized != plain.Nodes[id].PSensitized {
			t.Fatalf("node %d: saturated weight P %v != uncoupled %v",
				id, saturated.Nodes[id].PSensitized, plain.Nodes[id].PSensitized)
		}
	}

	// Cross-checks: invalid latch models fail validation before any work.
	bad := DefaultLatchModel()
	bad.ClockPeriodPs = -5
	if _, err := Run(ctx, c, WithFrames(frames), WithLatchModel(bad)); err == nil ||
		!strings.Contains(err.Error(), "latch") {
		t.Errorf("negative clock period: err = %v, want latch validation error", err)
	}
	nan := DefaultLatchModel()
	nan.PulseWidthPs = math.NaN()
	if _, err := Run(ctx, c, WithLatchModel(nan)); err == nil ||
		!strings.Contains(err.Error(), "finite") {
		t.Errorf("NaN pulse width: err = %v, want finiteness error", err)
	}
}

// TestLatchWeightedAnalyticVsMonteCarlo: at the public surface the weighted
// analytic and sampling runs agree within the documented mean tolerance.
func TestLatchWeightedAnalyticVsMonteCarlo(t *testing.T) {
	c, err := GenerateProfile("s953")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const frames = 4
	lm := DefaultLatchModel()
	analytic, err := Run(ctx, c, WithFrames(frames), WithLatchModel(lm))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(ctx, c, WithEngine("monte-carlo"), WithFrames(frames),
		WithLatchModel(lm), WithVectors(1<<12), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for id := range analytic.Nodes {
		sum += math.Abs(analytic.Nodes[id].PSensitized - sampled.Nodes[id].PSensitized)
	}
	if mean := sum / float64(len(analytic.Nodes)); mean > 0.08 {
		t.Errorf("mean |analytic − monte-carlo| = %v > 0.08 (latch-weighted, frames=%d)", mean, frames)
	}
}
