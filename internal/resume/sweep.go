// The one parallel sweep driver of every all-sites engine: the work list
// (Pending), span claiming, panic isolation, the unit budget and
// serialized progress reporting.

package resume

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pending tiles the part of [lo, hi) not covered by done (sorted, disjoint
// ranges within [lo, hi)) into pieces of at most chunk units, each gap cut
// from its own start — the work list of a fresh (done empty) or resumed
// sweep.
func Pending(lo, hi, chunk int, done []Range) []Range {
	var out []Range
	emit := func(a, b int) {
		for ; a+chunk < b; a += chunk {
			out = append(out, Range{Lo: a, Hi: a + chunk})
		}
		if a < b {
			out = append(out, Range{Lo: a, Hi: b})
		}
	}
	next := lo
	for _, r := range done {
		emit(next, r.Lo)
		next = r.Hi
	}
	emit(next, hi)
	return out
}

// ErrBudget is the sentinel a sweep returns when it stops at its unit
// budget; the engines wrap it in a *PartialError. Test with errors.Is. The
// message keeps the engine layer's wording, where the budget is configured.
var ErrBudget = errors.New("engine: sweep node budget exhausted")

// SweepPanicError is a panic recovered from inside a sweep — a worker
// goroutine processing a batch or block of words, or a callback (OnBatch,
// OnProgress, a Monte Carlo sweep's fold) — converted to a returned error
// so a buggy callback or one poisoned input aborts the sweep cleanly
// instead of crashing the process.
type SweepPanicError struct {
	Engine string // registry name of the engine whose sweep panicked
	Unit   string // failing unit kind: "batch", "words", "setup" or "sweep"
	Lo, Hi int    // failing unit range: [Lo, Hi) sites or words; -1 if unknown
	Value  any    // the recovered panic value
	Stack  []byte // stack of the panicking goroutine at recovery
}

// Error summarizes the panic; the full stack is in Stack.
func (e *SweepPanicError) Error() string {
	where := ""
	if e.Lo >= 0 {
		where = fmt.Sprintf(" at %s [%d,%d)", e.Unit, e.Lo, e.Hi)
	}
	return fmt.Sprintf("engine: panic in %s sweep%s: %v", e.Engine, where, e.Value)
}

// SweepSpans is the parallel driver of every all-sites sweep, site-major
// (spans of sites) and word-major (spans of 64-vector words) alike:
// spans are claimed from a lock-free atomic cursor by workers goroutines
// (<= 0 means GOMAXPROCS), each running its own do closure from newWorker.
// Because every sweep built on it writes per-unit results exactly once or
// sums integers, results are bit-identical at any worker count and any span
// partitioning. Cancellation is checked before each claim.
//
// maxUnits > 0 is the unit budget: before any span is claimed the work list
// is cut after the first span that brings doneBase (units completed before
// this call, i.e. restored from a checkpoint) to maxUnits or beyond, and
// ErrBudget is returned once the kept spans have finished. The committed
// set of a budgeted sweep therefore depends on neither timing nor worker
// count.
//
// After each completed span the driver runs the serialized report section
// — onBatch, then progress accounting against doneBase — under one mutex,
// on the goroutine that computed the span. Panics in callbacks or workers
// are recovered into a *SweepPanicError (Unit "batch", or "setup" for
// newWorker) that aborts the sweep. The returned done count (doneBase plus
// units reported here) is valid on error paths too, for partial-progress
// metadata.
func SweepSpans(ctx context.Context, spans []Range, total, doneBase, workers, maxUnits int, onBatch func(lo, hi int) error, onProgress func(done, total int), newWorker func() (func(lo, hi int) error, error)) (int, error) {
	budgetHit := false
	if maxUnits > 0 {
		d := doneBase
		for i, s := range spans {
			if d += s.Hi - s.Lo; d >= maxUnits {
				budgetHit = i+1 < len(spans)
				spans = spans[:i+1]
				break
			}
		}
	}
	if len(spans) == 0 {
		if onProgress != nil && doneBase > 0 {
			onProgress(doneBase, total)
		}
		return doneBase, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(spans))
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		abort  atomic.Bool
		first  error
		done   = doneBase
	)
	fail := func(err error) {
		func() {
			mu.Lock()
			defer mu.Unlock()
			if first == nil {
				first = err
			}
		}()
		abort.Store(true)
	}
	// report is the per-span critical section. The deferred recover turns a
	// callback panic into an error while the deferred unlock keeps the
	// mutex released either way — a panicking callback must never leave
	// wg.Wait() deadlocked behind a held lock.
	report := func(lo, hi int) (err error) {
		mu.Lock()
		defer mu.Unlock()
		defer func() {
			if r := recover(); r != nil {
				err = &SweepPanicError{Unit: "batch", Lo: lo, Hi: hi, Value: r, Stack: debug.Stack()}
			}
		}()
		if first != nil {
			return first
		}
		if onBatch != nil {
			if err := onBatch(lo, hi); err != nil {
				return err
			}
		}
		done += hi - lo
		if onProgress != nil {
			onProgress(done, total)
		}
		return nil
	}
	for w := 0; w < workers; w++ {
		do, err := newSweepWorker(newWorker)
		if err != nil {
			fail(err)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := -1, -1
			defer func() {
				if r := recover(); r != nil {
					fail(&SweepPanicError{Unit: "batch", Lo: lo, Hi: hi, Value: r, Stack: debug.Stack()})
				}
			}()
			for {
				if abort.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				lo, hi = spans[i].Lo, spans[i].Hi
				if err := do(lo, hi); err != nil {
					fail(err)
					return
				}
				if err := report(lo, hi); err != nil {
					fail(err)
					return
				}
				lo, hi = -1, -1
			}
		}()
	}
	wg.Wait()
	if first == nil && budgetHit {
		return done, ErrBudget
	}
	return done, first
}

// newSweepWorker runs a sweep's worker constructor with panic recovery:
// construction happens serially in the caller's goroutine, so a panic there
// (a poisoned circuit, say) must also become an error, not a crash.
func newSweepWorker(newWorker func() (func(lo, hi int) error, error)) (do func(lo, hi int) error, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &SweepPanicError{Unit: "setup", Lo: -1, Hi: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return newWorker()
}
