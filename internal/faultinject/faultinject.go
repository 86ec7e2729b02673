// Package faultinject deterministically breaks running sweeps, so the
// resilience layer can be tested against its strongest claim: a sweep killed
// at an arbitrary batch or word boundary and resumed from its checkpoint
// must reproduce an uninterrupted run byte for byte.
//
// An Injector piggybacks on the engines' progress callback (WithProgress /
// Request.OnProgress), which every engine invokes at each completed unit
// boundary — site batches for the analytic and exact engines, blocks of up
// to four 64-vector words for the monte-carlo engine. The injector picks
// one boundary from a seed (deterministic per seed, randomized across
// seeds) and fires exactly once when progress crosses it:
//
//   - Panic panics inside the callback, exercising the sweep driver's panic
//     isolation (the run must return a *engine.SweepPanicError, not crash).
//   - Cancel cancels the run's context, exercising orderly cancellation.
//   - Stall sleeps inside the callback, exercising WithTimeout deadlines.
//
// The trigger fraction is drawn from [0.15, 0.6] of the sweep's total units:
// late enough that real work has completed (and, with a checkpoint, been
// committed), early enough that every engine still has at least one
// uncompleted boundary after it, so the fault always lands mid-sweep.
package faultinject

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what the injector does at the chosen boundary.
type Kind int

const (
	// Panic panics inside the progress callback with an Injected value.
	Panic Kind = iota
	// Cancel cancels the context registered with SetCancel.
	Cancel
	// Stall sleeps for the duration registered with SetStall.
	Stall
)

// String names the kind for test output.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Cancel:
		return "cancel"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Injected is the panic value a Kind-Panic injector throws, carrying the
// progress boundary it fired at. Tests assert the recovered
// SweepPanicError.Value has this type to prove the surfaced panic is the
// injected one and not collateral damage.
type Injected struct {
	Done, Total int
}

// String describes the injection point.
func (v Injected) String() string {
	return fmt.Sprintf("faultinject: injected panic at %d/%d units", v.Done, v.Total)
}

// Injector fires one fault at a seeded progress boundary. Construct with
// New, wire Progress into the run under test (and SetCancel/SetStall for
// those kinds), then assert with Fired/FiredAt.
type Injector struct {
	kind   Kind
	frac   float64
	cancel context.CancelFunc
	stall  time.Duration

	fired atomic.Bool
	mu    sync.Mutex
	done  int
	total int
}

// New returns an injector of the given kind whose trigger boundary is
// derived deterministically from seed: the first progress report at or past
// a seeded fraction in [0.15, 0.6] of the total fires the fault.
func New(kind Kind, seed uint64) *Injector {
	u := float64(splitmix64(seed)>>11) / float64(uint64(1)<<53)
	return &Injector{kind: kind, frac: 0.15 + float64(0.45*u)} // float64: no fused multiply-add
}

// SetCancel registers the context cancel function a Kind-Cancel injector
// invokes when it fires.
func (in *Injector) SetCancel(cancel context.CancelFunc) { in.cancel = cancel }

// SetStall registers how long a Kind-Stall injector sleeps when it fires.
func (in *Injector) SetStall(d time.Duration) { in.stall = d }

// Progress returns the callback to register as the run's progress observer.
// It fires the fault on the first report with done in [trigger, total) —
// strictly mid-sweep — and is inert afterwards.
func (in *Injector) Progress() func(done, total int) {
	return func(done, total int) {
		if in.fired.Load() || done <= 0 || done >= total {
			return
		}
		if float64(done) < in.frac*float64(total) {
			return
		}
		if !in.fired.CompareAndSwap(false, true) {
			return
		}
		//serlint:allow deferunlock the unlock must precede the injected stall/panic below, or FiredAt readers would block for the whole stall; the critical section is a panic-free two-field write
		in.mu.Lock()
		in.done, in.total = done, total
		in.mu.Unlock()
		switch in.kind {
		case Panic:
			panic(Injected{Done: done, Total: total})
		case Cancel:
			in.cancel()
		case Stall:
			time.Sleep(in.stall)
		}
	}
}

// Fired reports whether the fault has fired.
func (in *Injector) Fired() bool { return in.fired.Load() }

// FiredAt returns the progress boundary the fault fired at (zero values if
// it has not fired).
func (in *Injector) FiredAt() (done, total int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.done, in.total
}

// splitmix64 is the standard 64-bit finalizing mix, used to turn a test's
// case seed into a well-distributed trigger fraction.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
