// Regression tests for the resilience layer shared by every engine: user
// callback panics surface as *SweepPanicError instead of crashing the
// process, node budgets stop sweeps as *PartialError, and no sweep — however
// it ends — leaves worker goroutines behind.

package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/resume"
	"repro/internal/sigprob"
)

// engineFixture returns a circuit sized for the engine: the exact engines
// pay 2^support (enum) or BDD construction per site, so they get c17; the
// swept engines get a profile with enough nodes for several batches.
func engineFixture(t *testing.T, engName string) (*netlist.Circuit, []float64) {
	t.Helper()
	var c *netlist.Circuit
	if engName == "enum" || engName == "bdd" {
		c = circuitFile(t, "c17.bench")
	} else {
		var err error
		c, err = gen.ByName("s953")
		if err != nil {
			t.Fatal(err)
		}
	}
	return c, sigprob.Topological(c, sigprob.Config{})
}

// TestCallbackPanicIsolation: a panicking OnBatch or OnProgress callback on
// any engine, serial or parallel, returns a *SweepPanicError naming the
// engine — the process must survive and the sweep's goroutines must wind
// down (wg.Wait must not deadlock behind the panic).
func TestCallbackPanicIsolation(t *testing.T) {
	for _, e := range Engines() {
		for _, cb := range []string{"OnBatch", "OnProgress"} {
			for _, workers := range []int{1, 4} {
				t.Run(e.Name()+"/"+cb+"/workers="+itoa(workers), func(t *testing.T) {
					c, sp := engineFixture(t, e.Name())
					req := &Request{Circuit: c, SP: sp, Vectors: 512, Seed: 5, Workers: workers}
					var mu sync.Mutex
					calls := 0
					boom := func() {
						mu.Lock()
						calls++
						n := calls
						mu.Unlock()
						if n == 2 {
							panic("injected callback panic")
						}
					}
					switch cb {
					case "OnBatch":
						req.OnBatch = func(lo, hi int) error { boom(); return nil }
					case "OnProgress":
						req.OnProgress = func(done, total int) { boom() }
					}
					out := make([]float64, c.N())
					err := e.PSensitizedAll(context.Background(), req, out)
					var spe *SweepPanicError
					if !errors.As(err, &spe) {
						t.Fatalf("err = %v (%T), want *SweepPanicError", err, err)
					}
					if spe.Engine != e.Name() {
						t.Errorf("panic attributed to %q, want %q", spe.Engine, e.Name())
					}
					if spe.Value != "injected callback panic" {
						t.Errorf("recovered value %v, want the injected panic", spe.Value)
					}
					if len(spe.Stack) == 0 {
						t.Error("no stack captured")
					}
					// Attribution follows the sweep's shape: monte-carlo
					// progress ticks per block of four 64-vector words, so
					// the second tick of 512 vectors reports [0, 4) or
					// [4, 8), whichever block finished second; every
					// OnBatch call (monte-carlo's included, which replay
					// site ranges after the last word) and every site-major
					// tick is a site batch.
					if e.Name() == "monte-carlo" && cb == "OnProgress" {
						if spe.Unit != "words" || spe.Lo%4 != 0 || spe.Lo > 4 || spe.Hi != spe.Lo+4 {
							t.Errorf("panic attributed to %s [%d,%d), want a block of four words", spe.Unit, spe.Lo, spe.Hi)
						}
					} else if spe.Unit != "batch" || spe.Lo < 0 || spe.Lo >= spe.Hi {
						t.Errorf("panic attributed to %s [%d,%d), want a non-empty site batch", spe.Unit, spe.Lo, spe.Hi)
					}
				})
			}
		}
	}
}

// TestBudgetAllEngines: MaxSweepNodes stops every engine at the first unit
// boundary at or past the budget, surfacing a *PartialError that wraps
// ErrBudget and reports partial progress. The stop is the same at any
// worker count: the sweep driver cuts the work list before any span is
// claimed, so 4 workers report the same Done as 1 and, for the
// checkpointing engines, leave a byte-identical checkpoint file.
func TestBudgetAllEngines(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.Name(), func(t *testing.T) {
			c, sp := engineFixture(t, e.Name())
			budget := c.N() / 2
			checkpointed := e.Name() == "epp-batch" || e.Name() == "monte-carlo"
			var dones []int
			var files [][]byte
			for _, workers := range []int{1, 4} {
				req := &Request{Circuit: c, SP: sp, Vectors: 512, Seed: 5, Workers: workers, MaxSweepNodes: budget}
				path := filepath.Join(t.TempDir(), "ck.json")
				if checkpointed {
					req.Resume = resume.New(path, time.Hour)
				}
				out := make([]float64, c.N())
				err := e.PSensitizedAll(context.Background(), req, out)
				if !errors.Is(err, ErrBudget) {
					t.Fatalf("workers=%d: err = %v, want ErrBudget", workers, err)
				}
				var perr *PartialError
				if !errors.As(err, &perr) {
					t.Fatalf("workers=%d: err = %T, want *PartialError", workers, err)
				}
				if perr.Done < 1 || perr.Done >= perr.Total || perr.Total != c.N() {
					t.Errorf("workers=%d: PartialError reports %d/%d, want mid-sweep stop of %d units", workers, perr.Done, perr.Total, c.N())
				}
				dones = append(dones, perr.Done)
				if checkpointed {
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("workers=%d: budgeted stop left no checkpoint: %v", workers, err)
					}
					files = append(files, b)
				}
			}
			if dones[0] != dones[1] {
				t.Errorf("PartialError.Done = %d at 1 worker, %d at 4", dones[0], dones[1])
			}
			if checkpointed && !bytes.Equal(files[0], files[1]) {
				t.Errorf("checkpoint after the budgeted stop differs between 1 and 4 workers:\n%s\n%s", files[0], files[1])
			}
		})
	}
}

// TestMCBudgetInsideBlock: a MaxSweepNodes budget on the monte-carlo
// engine runs exactly the words it maps to, even when the budget ends
// inside a block of four: at 1000 vectors (16 words) the budgets of 1, 3,
// 5, 6 and 15 words stop with PartialError.Done at exactly that many words'
// node units and a checkpoint whose done set is [0, b) with counters of b
// words, at 1, 2 and 4 workers alike; resuming from it finishes with the
// unbudgeted estimates and checkpoint, byte for byte.
func TestMCBudgetInsideBlock(t *testing.T) {
	c := gen.SmallRandomSequential(58)
	n := c.N()
	mc, err := Lookup("monte-carlo")
	if err != nil {
		t.Fatal(err)
	}
	const vectors, words = 1000, 16
	for _, frames := range []int{1, 3} {
		run := func(path string, workers, budget int) ([]float64, error) {
			out := make([]float64, n)
			req := &Request{Circuit: c, Frames: frames, Vectors: vectors, Seed: 4, Workers: workers,
				MaxSweepNodes: budget, Resume: resume.New(path, 0)}
			return out, mc.PSensitizedAll(context.Background(), req, out)
		}
		fresh := filepath.Join(t.TempDir(), "fresh.ckpt")
		want, err := run(fresh, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantFile, err := os.ReadFile(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, b := range []int{1, 3, 5, 6, 15} {
				path := filepath.Join(t.TempDir(), "mc.ckpt")
				_, err := run(path, workers, b*n/words)
				var perr *PartialError
				if !errors.As(err, &perr) || !errors.Is(err, ErrBudget) {
					t.Fatalf("frames %d workers %d budget %d words: err = %v, want a *PartialError wrapping ErrBudget", frames, workers, b, err)
				}
				if perr.Done != b*n/words || perr.Total != n {
					t.Errorf("frames %d workers %d budget %d words: PartialError reports %d/%d, want %d/%d", frames, workers, b, perr.Done, perr.Total, b*n/words, n)
				}
				f, err := resume.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(f.Done) != 1 || f.Done[0] != (resume.Range{Lo: 0, Hi: b}) || f.Counters.Words != int64(b) {
					t.Errorf("frames %d workers %d budget %d words: checkpoint done %v with counters of %d words, want [0,%d) and %d",
						frames, workers, b, f.Done, f.Counters.Words, b, b)
				}
				got, err := run(path, workers, 0)
				if err != nil {
					t.Fatal(err)
				}
				for id := range got {
					if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
						t.Fatalf("frames %d workers %d budget %d words: resumed site %d = %v, unbudgeted %v", frames, workers, b, id, got[id], want[id])
					}
				}
				if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, wantFile) {
					t.Errorf("frames %d workers %d budget %d words: the resumed checkpoint differs from the unbudgeted one (%v)", frames, workers, b, err)
				}
			}
		}
	}
}

// TestNoGoroutineLeaks: cancellation mid-sweep, an OnBatch error, and an
// injected callback panic each leave no live sweep goroutines on any engine.
func TestNoGoroutineLeaks(t *testing.T) {
	type scenario struct {
		name string
		run  func(t *testing.T, e Engine)
	}
	scenarios := []scenario{
		{"cancel", func(t *testing.T, e Engine) {
			c, sp := engineFixture(t, e.Name())
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := &Request{
				Circuit: c, SP: sp, Vectors: 512, Seed: 5, Workers: 4,
				OnProgress: func(done, total int) {
					if done > 0 {
						cancel()
					}
				},
			}
			out := make([]float64, c.N())
			if err := e.PSensitizedAll(ctx, req, out); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}},
		{"onbatch-error", func(t *testing.T, e Engine) {
			c, sp := engineFixture(t, e.Name())
			sentinel := errors.New("stop")
			req := &Request{
				Circuit: c, SP: sp, Vectors: 512, Seed: 5, Workers: 4,
				OnBatch: func(lo, hi int) error { return sentinel },
			}
			out := make([]float64, c.N())
			if err := e.PSensitizedAll(context.Background(), req, out); !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want the sentinel", err)
			}
		}},
		{"onprogress-panic", func(t *testing.T, e Engine) {
			c, sp := engineFixture(t, e.Name())
			req := &Request{
				Circuit: c, SP: sp, Vectors: 512, Seed: 5, Workers: 4,
				OnProgress: func(done, total int) { panic("leak probe") },
			}
			out := make([]float64, c.N())
			err := e.PSensitizedAll(context.Background(), req, out)
			var spe *SweepPanicError
			if !errors.As(err, &spe) {
				t.Fatalf("err = %v, want *SweepPanicError", err)
			}
		}},
	}
	for _, e := range Engines() {
		for _, sc := range scenarios {
			t.Run(e.Name()+"/"+sc.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				sc.run(t, e)
				waitGoroutines(t, before)
			})
		}
	}
}

// waitGoroutines polls until the live goroutine count returns to the
// pre-sweep baseline (workers may still be winding down when the driver
// returns its error — only their eventual exit matters for leaks).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d live, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
