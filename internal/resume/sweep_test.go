package resume

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// runSweep runs SweepSpans in its own goroutine and fails the test if it
// does not return within the timeout — the shape every deadlock regression
// here needs.
func runSweep(t *testing.T, sweep func() (int, error)) (int, error) {
	t.Helper()
	type result struct {
		done int
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		d, err := sweep()
		ch <- result{d, err}
	}()
	select {
	case r := <-ch:
		return r.done, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("SweepSpans deadlocked")
		return 0, nil
	}
}

// TestSweepSpansReportPanicDoesNotDeadlock locks in the fix for a real bug
// found by serlint's deferunlock analyzer (first in the Monte Carlo word
// sweep's merge, since folded into this driver's report section): a
// section that takes the mutex without a deferred unlock lets a panicking
// callback escape with the mutex held, and the worker's recover path —
// fail, which takes the same mutex — then deadlocks the whole sweep. An
// onBatch that panics at 2 workers must instead come back promptly as a
// *SweepPanicError naming the span.
func TestSweepSpansReportPanicDoesNotDeadlock(t *testing.T) {
	t.Parallel()
	spans := Pending(0, 8, 1, nil)
	_, err := runSweep(t, func() (int, error) {
		return SweepSpans(context.Background(), spans, 8, 0, 2, 0,
			func(lo, hi int) error { panic("onBatch exploded") },
			nil,
			func() (func(lo, hi int) error, error) {
				return func(lo, hi int) error { return nil }, nil
			})
	})
	var pe *SweepPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("SweepSpans returned %v, want *SweepPanicError", err)
	}
	if pe.Value != "onBatch exploded" || pe.Unit != "batch" || pe.Hi != pe.Lo+1 || len(pe.Stack) == 0 {
		t.Fatalf("SweepPanicError = %+v, want the onBatch panic on a one-unit batch with a stack", pe)
	}
}

// TestSweepSpansSetupPanic: a panicking worker constructor becomes a
// *SweepPanicError with Unit "setup" and no unit range, not a crash.
func TestSweepSpansSetupPanic(t *testing.T) {
	t.Parallel()
	_, err := runSweep(t, func() (int, error) {
		return SweepSpans(context.Background(), Pending(0, 8, 1, nil), 8, 0, 2, 0, nil, nil,
			func() (func(lo, hi int) error, error) { panic("setup exploded") })
	})
	var pe *SweepPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("SweepSpans returned %v, want *SweepPanicError", err)
	}
	if pe.Unit != "setup" || pe.Lo != -1 || pe.Hi != -1 || pe.Value != "setup exploded" {
		t.Fatalf("SweepPanicError = %+v, want Unit setup over [-1,-1) with the setup panic", pe)
	}
}

// TestSweepSpansBudgetWorkerInvariant: the budget cuts the work list before
// any span is claimed — after the first span reaching maxUnits — so the
// done count and the committed spans are the same at any worker count
// (0 meaning GOMAXPROCS), and restored units count toward maxUnits.
func TestSweepSpansBudgetWorkerInvariant(t *testing.T) {
	t.Parallel()
	restored := []Range{{Lo: 10, Hi: 20}}
	spans := Pending(0, 100, 8, restored)
	for _, workers := range []int{1, 4, 0} {
		var mu sync.Mutex
		var committed []Range
		done, err := runSweep(t, func() (int, error) {
			return SweepSpans(context.Background(), spans, 100, 10, workers, 10+30,
				func(lo, hi int) error {
					mu.Lock()
					defer mu.Unlock()
					committed = append(committed, Range{Lo: lo, Hi: hi})
					return nil
				},
				nil,
				func() (func(lo, hi int) error, error) {
					return func(lo, hi int) error { return nil }, nil
				})
		})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("workers=%d: err = %v, want ErrBudget", workers, err)
		}
		// Spans [0,8) [8,10) [20,28) [28,36) bring 10 restored units to 38;
		// [36,44) is the first to reach 40.
		if done != 10+34 {
			t.Errorf("workers=%d: done = %d, want 44", workers, done)
		}
		seen := map[Range]bool{}
		for _, r := range committed {
			seen[r] = true
		}
		want := map[Range]bool{{0, 8}: true, {8, 10}: true, {20, 28}: true, {28, 36}: true, {36, 44}: true}
		if !reflect.DeepEqual(seen, want) || len(committed) != len(want) {
			t.Errorf("workers=%d: committed %v, want exactly %v", workers, committed, want)
		}
	}
}
