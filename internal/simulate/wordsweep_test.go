package simulate

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resume"
)

// panicMergeWorker is a wordWorker whose merge panics — the regression
// shape for the worker-exit merge deadlock: before the deferred unlock, a
// panic inside merge left the sweep mutex held, so the goroutine's recover
// path (fail, which takes the same mutex) deadlocked the whole sweep
// instead of reporting a *PanicError.
type panicMergeWorker struct {
	words atomic.Int64
}

func (w *panicMergeWorker) runWord(int64)          { w.words.Add(1) }
func (w *panicMergeWorker) merge(*resume.Counters) { panic("merge exploded") }
func (w *panicMergeWorker) reset()                 {}

// TestRunWordSweepMergePanicDoesNotDeadlock locks in the fix for a real
// bug found by serlint's deferunlock analyzer: the worker-exit merge (the
// !perWordMerge regime — no commit hook, no progress hook) ran
// mu.Lock(); wk.merge(tot); mu.Unlock(), so a panicking merge escaped
// with the mutex held and the deferred recover's fail() self-deadlocked.
// The sweep must instead return a structured *PanicError promptly.
func TestRunWordSweepMergePanicDoesNotDeadlock(t *testing.T) {
	t.Parallel()
	wk := &panicMergeWorker{}
	cfg := wordSweepCfg{workers: 2, words: 8}
	var tot resume.Counters
	done := make(chan error, 1)
	go func() {
		done <- runWordSweep(context.Background(), cfg, &tot, func() wordWorker { return wk })
	}()
	select {
	case err := <-done:
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("runWordSweep returned %v, want *PanicError", err)
		}
		if pe.Value != "merge exploded" {
			t.Fatalf("PanicError.Value = %v, want the merge panic value", pe.Value)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runWordSweep deadlocked after a merge panic (mutex held across the panicking merge)")
	}
	if wk.words.Load() != int64(cfg.words) {
		t.Fatalf("ran %d words, want %d (merge panics only at worker exit)", wk.words.Load(), cfg.words)
	}
}
