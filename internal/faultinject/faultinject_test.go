// The resilience acceptance suite: a sweep killed at a deterministic but
// seed-randomized batch/word boundary and resumed from its checkpoint must
// produce a Report byte-identical to an uninterrupted run — on every engine,
// at worker counts 1/4/max, at frames 1/4 — and the final checkpoint file
// (done ranges, IEEE-754 value bits, integer counters) must match an
// uninterrupted checkpointed run byte for byte.

package faultinject_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	sersim "repro"
	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/resume"
)

// bigCirc is large enough (PIs+FFs+gates = 194 nodes) that every site-major
// engine has several batch boundaries (epp-scalar chunks 64 sites) and the
// injector's trigger always lands strictly mid-sweep.
var bigCirc = gen.MustRandom(gen.Params{
	Name: "fi-seq", Seed: 0xfa0107, PIs: 8, POs: 4, FFs: 6, Gates: 180,
})

// loadC17 parses the small combinational fixture used for the exact engines,
// whose per-site cost scales with 2^support (enum) or BDD size (bdd).
func loadC17(t *testing.T) *sersim.Circuit {
	t.Helper()
	c, err := bench.ParseFile("../../testdata/c17.bench")
	if err != nil {
		t.Fatalf("parse c17: %v", err)
	}
	return c
}

type fiCase struct {
	engine  string
	frames  int
	workers int
}

func (tc fiCase) name() string {
	return fmt.Sprintf("%s_f%d_w%d", tc.engine, tc.frames, tc.workers)
}

func (tc fiCase) circuit(t *testing.T) *sersim.Circuit {
	if tc.engine == "enum" || tc.engine == "bdd" {
		return loadC17(t)
	}
	return bigCirc
}

// opts is the case's full run configuration; baseline, interrupted and
// resumed runs all start from it so only the checkpoint/injector differ.
func (tc fiCase) opts() []sersim.Option {
	opts := []sersim.Option{
		sersim.WithEngine(tc.engine),
		sersim.WithWorkers(tc.workers),
		sersim.WithSeed(99),
	}
	if tc.frames > 1 {
		opts = append(opts, sersim.WithFrames(tc.frames))
	}
	if tc.engine == "monte-carlo" {
		// 2048 vectors are 32 words in 8 blocks of 4: progress ticks at
		// every 4th word, so the injector's trigger, at most 60% of the
		// sweep, always lands before the last block.
		opts = append(opts, sersim.WithVectors(2048))
	}
	return opts
}

// acceptanceMatrix is the full engine × frames × workers grid: the exact
// engines reject Frames > 1, every other combination is exercised.
func acceptanceMatrix() []fiCase {
	var cs []fiCase
	for _, eng := range []string{"epp-batch", "epp-scalar", "monte-carlo"} {
		for _, frames := range []int{1, 4} {
			for _, workers := range []int{1, 4, 0} {
				cs = append(cs, fiCase{eng, frames, workers})
			}
		}
	}
	for _, eng := range []string{"enum", "bdd"} {
		for _, workers := range []int{1, 4, 0} {
			cs = append(cs, fiCase{eng, 1, workers})
		}
	}
	return cs
}

// encodeReport serializes a Report with every float as its IEEE-754 bit
// pattern, so equality of encodings is bit-exactness, not approximate
// agreement.
func encodeReport(r *sersim.Report) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s|%v|%s|%016x\n", r.Circuit, r.Method, r.Engine, math.Float64bits(r.TotalFIT))
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "%d|%s|%016x|%016x|%016x|%016x\n", n.ID, n.Name,
			math.Float64bits(n.RateFIT), math.Float64bits(n.PLatched),
			math.Float64bits(n.PSensitized), math.Float64bits(n.SERFIT))
	}
	return b.Bytes()
}

// TestPanicKillResumeByteExact is the headline acceptance criterion: kill
// the sweep with an injected worker/callback panic at a randomized boundary,
// resume from the checkpoint, and require the result — and the final
// checkpoint itself — to be byte-identical to never having been killed.
func TestPanicKillResumeByteExact(t *testing.T) {
	for i, tc := range acceptanceMatrix() {
		t.Run(tc.name(), func(t *testing.T) {
			c := tc.circuit(t)
			ctx := context.Background()
			baseline, err := sersim.Run(ctx, c, tc.opts()...)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}

			dir := t.TempDir()
			ck := filepath.Join(dir, "ck.json")
			inj := faultinject.New(faultinject.Panic, uint64(1000+i))
			_, err = sersim.Run(ctx, c, append(tc.opts(),
				sersim.WithCheckpoint(ck, 0),
				sersim.WithProgress(inj.Progress()))...)
			if !inj.Fired() {
				t.Fatalf("injector never fired (run returned %v)", err)
			}
			var spe *sersim.SweepPanicError
			if !errors.As(err, &spe) {
				t.Fatalf("interrupted run returned %T (%v), want *SweepPanicError", err, err)
			}
			if spe.Engine != tc.engine {
				t.Errorf("panic attributed to engine %q, want %q", spe.Engine, tc.engine)
			}
			if _, ok := spe.Value.(faultinject.Injected); !ok {
				t.Errorf("recovered panic value is %T, want faultinject.Injected", spe.Value)
			}
			if _, err := os.Stat(ck); err != nil {
				t.Fatalf("no checkpoint survived the injected panic: %v", err)
			}

			resumed, err := sersim.Run(ctx, c, append(tc.opts(), sersim.WithCheckpoint(ck, 0))...)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !bytes.Equal(encodeReport(baseline), encodeReport(resumed)) {
				t.Fatal("resumed report is not byte-identical to the uninterrupted baseline")
			}

			// The checkpoint left behind by kill+resume must equal the one an
			// uninterrupted checkpointed run writes: same done ranges, same
			// value bits, same integer counters.
			ck2 := filepath.Join(dir, "ck2.json")
			if _, err := sersim.Run(ctx, c, append(tc.opts(), sersim.WithCheckpoint(ck2, 0))...); err != nil {
				t.Fatalf("uninterrupted checkpointed run: %v", err)
			}
			b1, err := os.ReadFile(ck)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := os.ReadFile(ck2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatal("final checkpoint after kill+resume differs from an uninterrupted run's checkpoint")
			}
		})
	}
}

// TestCancelResumeByteExact kills the sweep by cancelling its context at a
// randomized boundary instead of panicking; the committed prefix must resume
// to a byte-identical result.
func TestCancelResumeByteExact(t *testing.T) {
	cs := []fiCase{
		{"epp-batch", 1, 4},
		{"epp-scalar", 4, 2},
		{"monte-carlo", 1, 4},
		{"enum", 1, 2},
	}
	for i, tc := range cs {
		t.Run(tc.name(), func(t *testing.T) {
			c := tc.circuit(t)
			baseline, err := sersim.Run(context.Background(), c, tc.opts()...)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}

			ck := filepath.Join(t.TempDir(), "ck.json")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inj := faultinject.New(faultinject.Cancel, uint64(2000+i))
			inj.SetCancel(cancel)
			_, err = sersim.Run(ctx, c, append(tc.opts(),
				sersim.WithCheckpoint(ck, 0),
				sersim.WithProgress(inj.Progress()))...)
			if !inj.Fired() {
				t.Fatalf("injector never fired (run returned %v)", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want context.Canceled", err)
			}
			var perr *sersim.PartialError
			if !errors.As(err, &perr) {
				t.Fatalf("cancelled run returned %T, want *PartialError", err)
			}
			if perr.Done <= 0 || perr.Done > perr.Total {
				t.Fatalf("PartialError reports %d/%d done", perr.Done, perr.Total)
			}

			resumed, err := sersim.Run(context.Background(), c, append(tc.opts(), sersim.WithCheckpoint(ck, 0))...)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !bytes.Equal(encodeReport(baseline), encodeReport(resumed)) {
				t.Fatal("resumed report is not byte-identical to the uninterrupted baseline")
			}
		})
	}
}

// TestAbortFlushWithLazyCadence: with a checkpoint interval far longer than
// the sweep, nothing hits disk on cadence — durability of an interrupted run
// rests entirely on the abort-path flush (the site-major drivers' final
// Flush, the word-major sweep's FlushCounters). A cancelled run must
// still leave its committed prefix in the file, and resuming from that file
// must reproduce the baseline byte for byte.
func TestAbortFlushWithLazyCadence(t *testing.T) {
	const lazy = time.Hour
	cs := []fiCase{
		{"epp-batch", 1, 4},
		{"monte-carlo", 1, 4},
	}
	for i, tc := range cs {
		t.Run(tc.name(), func(t *testing.T) {
			c := tc.circuit(t)
			baseline, err := sersim.Run(context.Background(), c, tc.opts()...)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}

			ck := filepath.Join(t.TempDir(), "ck.json")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inj := faultinject.New(faultinject.Cancel, uint64(5000+i))
			inj.SetCancel(cancel)
			_, err = sersim.Run(ctx, c, append(tc.opts(),
				sersim.WithCheckpoint(ck, lazy),
				sersim.WithProgress(inj.Progress()))...)
			if !inj.Fired() {
				t.Fatalf("injector never fired (run returned %v)", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want context.Canceled", err)
			}
			f, err := resume.Load(ck)
			if err != nil {
				t.Fatalf("load checkpoint: %v", err)
			}
			if f == nil {
				t.Fatal("aborted run left no checkpoint despite committed work")
			}
			done := 0
			for _, r := range f.Done {
				done += r.Hi - r.Lo
			}
			if done <= 0 || done >= f.Units {
				t.Fatalf("abort flush recorded %d/%d units, want a strict mid-sweep prefix", done, f.Units)
			}

			resumed, err := sersim.Run(context.Background(), c, append(tc.opts(), sersim.WithCheckpoint(ck, lazy))...)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !bytes.Equal(encodeReport(baseline), encodeReport(resumed)) {
				t.Fatal("resumed report is not byte-identical to the uninterrupted baseline")
			}
		})
	}
}

// TestStallTimeoutResume stalls a worker past the run's deadline: the run
// must stop with a DeadlineExceeded-wrapping PartialError, and a later
// unhurried run must resume the committed work to the exact baseline result.
func TestStallTimeoutResume(t *testing.T) {
	cs := []fiCase{
		{"epp-batch", 1, 4},
		{"monte-carlo", 1, 4},
	}
	for i, tc := range cs {
		t.Run(tc.name(), func(t *testing.T) {
			c := tc.circuit(t)
			baseline, err := sersim.Run(context.Background(), c, tc.opts()...)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}

			ck := filepath.Join(t.TempDir(), "ck.json")
			inj := faultinject.New(faultinject.Stall, uint64(3000+i))
			inj.SetStall(600 * time.Millisecond)
			_, err = sersim.Run(context.Background(), c, append(tc.opts(),
				sersim.WithTimeout(150*time.Millisecond),
				sersim.WithCheckpoint(ck, 0),
				sersim.WithProgress(inj.Progress()))...)
			if !inj.Fired() {
				t.Fatalf("injector never fired (run returned %v)", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("stalled run returned %v, want context.DeadlineExceeded", err)
			}
			var perr *sersim.PartialError
			if !errors.As(err, &perr) {
				t.Fatalf("stalled run returned %T, want *PartialError", err)
			}

			resumed, err := sersim.Run(context.Background(), c, append(tc.opts(), sersim.WithCheckpoint(ck, 0))...)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !bytes.Equal(encodeReport(baseline), encodeReport(resumed)) {
				t.Fatal("resumed report is not byte-identical to the uninterrupted baseline")
			}
		})
	}
}

// TestBudgetConvergence re-runs a node-budgeted, checkpointed request until
// completion: every intermediate stop must be an ErrSweepBudget-wrapping
// PartialError and the converged result must equal the unbudgeted baseline
// byte for byte.
func TestBudgetConvergence(t *testing.T) {
	cs := []fiCase{
		{"epp-batch", 1, 0},
		{"epp-scalar", 4, 1},
		{"monte-carlo", 1, 4},
	}
	for _, tc := range cs {
		t.Run(tc.name(), func(t *testing.T) {
			c := tc.circuit(t)
			ctx := context.Background()
			baseline, err := sersim.Run(ctx, c, tc.opts()...)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}

			ck := filepath.Join(t.TempDir(), "ck.json")
			budget := c.N() / 3
			opts := append(tc.opts(),
				sersim.WithMaxSweepNodes(budget),
				sersim.WithCheckpoint(ck, 0))
			var final *sersim.Report
			for step := 0; step < 20; step++ {
				rep, err := sersim.Run(ctx, c, opts...)
				if err == nil {
					final = rep
					break
				}
				if !errors.Is(err, sersim.ErrSweepBudget) {
					t.Fatalf("budgeted step %d returned %v, want ErrSweepBudget", step, err)
				}
			}
			if final == nil {
				t.Fatalf("budgeted runs (budget %d of %d units) did not converge in 20 steps", budget, c.N())
			}
			if !bytes.Equal(encodeReport(baseline), encodeReport(final)) {
				t.Fatal("converged budgeted report is not byte-identical to the unbudgeted baseline")
			}
		})
	}
}
