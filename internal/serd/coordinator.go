// The coordinator half of the distributed mode: cut the sweep's node-ID
// space into shards, dispatch them over the worker daemons, commit returned
// ranges against one checkpoint identity, and fold the committed values
// into the full P_sensitized vector (see the package doc for why the fold
// is bit-identical to a single-process sweep). Dispatch is chaos-hardened:
// failed shards requeue with exponential backoff and deterministic seeded
// jitter, each attempt carries an optional per-shard deadline so a stalled
// worker cannot hold a shard until the whole-request deadline, idle workers
// hedge the final straggler shards (first valid response wins, the loser's
// attempt is cancelled), shard values are validated (finite, in [0,1])
// before folding, and per-worker circuit breakers with healthz probing
// replace permanent retirement. With AllowPartial, a shard that exhausts
// its retry budget becomes an explicit uncovered hole instead of failing
// the request.

package serd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netlist"
	"repro/internal/resume"
	"repro/internal/ser"
)

// floatBits converts shard values to their wire representation.
func floatBits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// bitsFloat inverts floatBits.
func bitsFloat(bits []uint64) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// CoordinatorStats is the coordinator's health and dispatch counters,
// exposed through GET /v1/stats on coordinator daemons.
type CoordinatorStats struct {
	Workers      []WorkerStats `json:"workers"`
	Dispatched   int64         `json:"dispatched"`    // shard attempts issued
	Retries      int64         `json:"retries"`       // failed shards requeued with backoff
	Hedges       int64         `json:"hedges"`        // duplicate straggler dispatches
	Holes        int64         `json:"holes"`         // shards abandoned into partial results
	ValueRejects int64         `json:"value_rejects"` // responses refused for invalid values
}

// coordinator shards site sweeps over a fixed worker fleet. It lives for
// the daemon's lifetime, so its per-worker breakers carry health across
// requests: a worker opened by one request's failures is probed and
// rejoins for later requests without a coordinator restart.
type coordinator struct {
	workers       []string
	shards        int // target shard count per sweep
	maxAttempts   int // dispatch attempts per shard before it is exhausted
	checkpointDir string
	client        *http.Client
	logf          func(format string, args ...any)

	shardTimeout time.Duration // per-attempt deadline (0 = none)
	backoffBase  time.Duration // base requeue delay
	hedgeDelay   time.Duration // straggler age before hedging (< 0 = off)
	breakers     map[string]*breaker

	jmu    sync.Mutex
	jstate uint64 // splitmix64 jitter stream (seeded, deterministic)

	dispatched   atomic.Int64
	retries      atomic.Int64
	hedges       atomic.Int64
	holes        atomic.Int64
	valueRejects atomic.Int64
}

func newCoordinator(cfg Config, logf func(format string, args ...any)) *coordinator {
	perWorker := cfg.ShardsPerWorker
	if perWorker <= 0 {
		perWorker = 2
	}
	attempts := cfg.ShardAttempts
	if attempts <= 0 {
		attempts = 2 + len(cfg.Workers)
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	hedge := cfg.HedgeDelay
	if hedge == 0 {
		hedge = 50 * time.Millisecond
	}
	seed := cfg.RetrySeed
	if seed == 0 {
		seed = 1
	}
	breakers := make(map[string]*breaker, len(cfg.Workers))
	for _, w := range cfg.Workers {
		breakers[w] = newBreaker(cfg.BreakerThreshold, cfg.BreakerProbe)
	}
	return &coordinator{
		workers:       cfg.Workers,
		shards:        perWorker * len(cfg.Workers),
		maxAttempts:   attempts,
		checkpointDir: cfg.CheckpointDir,
		client:        client,
		logf:          logf,
		shardTimeout:  cfg.ShardTimeout,
		backoffBase:   backoff,
		hedgeDelay:    hedge,
		breakers:      breakers,
		jstate:        seed,
	}
}

// stats snapshots the dispatch counters and per-worker breaker states.
func (co *coordinator) stats() *CoordinatorStats {
	cs := &CoordinatorStats{
		Dispatched:   co.dispatched.Load(),
		Retries:      co.retries.Load(),
		Hedges:       co.hedges.Load(),
		Holes:        co.holes.Load(),
		ValueRejects: co.valueRejects.Load(),
	}
	for _, w := range co.workers {
		ws := co.breakers[w].snapshot()
		ws.URL = w
		cs.Workers = append(cs.Workers, ws)
	}
	return cs
}

// jitter draws the next value in [0, 1) from the seeded splitmix64 stream.
// The stream is deterministic for a given RetrySeed and draw order, which
// is what makes chaos-test fault schedules replayable.
func (co *coordinator) jitter() float64 {
	co.jmu.Lock()
	defer co.jmu.Unlock()
	co.jstate += 0x9e3779b97f4a7c15
	z := co.jstate
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// backoffDelay is the wait before redispatching a shard that has failed
// `attempts` times: base·2^(attempts-1), capped at 64·base, scaled by a
// deterministic jitter factor in [0.5, 1.5) so a burst of failures does
// not resynchronize into a retry thundering herd.
func (co *coordinator) backoffDelay(attempts int) time.Duration {
	shift := attempts - 1
	if shift > 6 {
		shift = 6
	}
	d := co.backoffBase << uint(shift)
	return time.Duration((0.5 + co.jitter()) * float64(d))
}

// shardTask is one dispatchable range with its retry budget.
type shardTask struct {
	lo, hi   int
	attempts int
}

// pendingShardTasks tiles the complement of the committed ranges into
// shard-sized tasks — on a fresh sweep the whole [0, n), on a resumed one
// only the holes a previous coordinator run (or a failed request) left.
func pendingShardTasks(n, chunk int, done []resume.Range) []shardTask {
	var tasks []shardTask
	for _, r := range resume.Pending(0, n, chunk, done) {
		tasks = append(tasks, shardTask{lo: r.Lo, hi: r.Hi})
	}
	return tasks
}

// uncoveredRanges returns the complement of the committed ranges over
// [0, n) — the holes a partial result must disclose.
func uncoveredRanges(n int, done []resume.Range) []Range {
	var out []Range
	for _, r := range resume.Pending(0, n, n, done) {
		out = append(out, Range(r))
	}
	return out
}

// flight is one shard range currently being attempted by one or two
// workers (two when hedged). attempts maps worker base URL to the cancel
// function of its in-flight attempt; a nil value is a claim registered by
// take before the attempt context exists.
type flight struct {
	task      shardTask
	started   time.Time
	attempts  map[string]context.CancelFunc
	committed bool
}

// dispatch is the per-request dispatch state shared by the worker pullers.
type dispatch struct {
	co   *coordinator
	ctx  context.Context
	st   *resume.State
	out  []float64
	src  CircuitSource
	opts Options // the client's, scheduling knobs cleared
	info ser.Info

	mu      sync.Mutex
	pending []shardTask
	flights map[int]*flight // keyed by task.lo
	left    int             // tasks not yet committed or abandoned
	lastErr error
	fatal   error
	partial bool // AllowPartial: exhausted shards become holes
	closed  bool
	done    chan struct{}
	wake    chan struct{} // closed+replaced to nudge idle pullers
}

func (d *dispatch) wakeLocked() {
	close(d.wake)
	d.wake = make(chan struct{})
}

func (d *dispatch) closeLocked() {
	if !d.closed {
		d.closed = true
		close(d.done)
	}
}

// take hands the calling worker its next unit of work: a pending task if
// any, otherwise a hedge of the oldest eligible straggler (a flight with a
// single live attempt by another worker, older than the hedge delay, with
// retry budget left). The returned flight has this worker's claim already
// registered. When there is nothing to do it returns a wake channel and a
// wait hint for idle sleeping.
func (d *dispatch) take(base string, now time.Time) (fl *flight, hedged bool, wakeCh chan struct{}, wait time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false, nil, 0
	}
	if len(d.pending) > 0 {
		t := d.pending[0]
		d.pending = d.pending[1:]
		fl = &flight{task: t, started: now, attempts: map[string]context.CancelFunc{base: nil}}
		d.flights[t.lo] = fl
		return fl, false, nil, 0
	}
	wait = 50 * time.Millisecond
	if d.co.hedgeDelay >= 0 {
		var best *flight
		//serlint:allow detrange hedge-candidate selection is scheduling only: whichever flight is hedged, the winning values fold placement-only, so results are independent of iteration order
		for _, f := range d.flights {
			if f.committed || len(f.attempts) != 1 || f.task.attempts >= d.co.maxAttempts {
				continue
			}
			if _, mine := f.attempts[base]; mine {
				continue
			}
			if eligibleAt := f.started.Add(d.co.hedgeDelay); now.Before(eligibleAt) {
				if w := eligibleAt.Sub(now); w < wait {
					wait = w
				}
				continue
			}
			if best == nil || f.started.Before(best.started) {
				best = f
			}
		}
		if best != nil {
			best.attempts[base] = nil
			return best, true, nil, 0
		}
	}
	return nil, false, d.wake, wait
}

// register swaps this worker's claim for the live attempt's cancel
// function. It reports false — and withdraws the claim — when the flight
// resolved while the attempt context was being prepared.
func (d *dispatch) register(fl *flight, base string, cancel context.CancelFunc) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if fl.committed || d.closed {
		delete(fl.attempts, base)
		return false
	}
	fl.attempts[base] = cancel
	return true
}

// attemptContext derives one shard attempt's context: cancelable (for
// hedging) and deadline-bounded when a per-shard timeout is configured.
func (d *dispatch) attemptContext() (context.Context, context.CancelFunc) {
	if d.co.shardTimeout > 0 {
		return context.WithTimeout(d.ctx, d.co.shardTimeout)
	}
	return context.WithCancel(d.ctx)
}

// finish resolves one completed shard attempt: commit on the first valid
// response (cancelling any hedge sibling), requeue with backoff on a
// health-relevant failure, abandon into a hole (AllowPartial) or fail the
// request when the retry budget is exhausted. Failures caused by the
// request's own context (client disconnect, request deadline) and attempts
// cancelled because a hedge sibling already committed are not health
// signals and never touch the breaker — a client hanging up must not
// retire a healthy worker.
func (d *dispatch) finish(base string, br *breaker, fl *flight, vals []float64, err error) {
	//serlint:allow deferunlock resolution paths must release d.mu before touching the breaker and the checkpoint store (lock-ordering), so every exit unlocks manually; the critical sections are panic-free map/slice bookkeeping
	d.mu.Lock()
	delete(fl.attempts, base)
	if fl.committed || d.closed {
		d.mu.Unlock()
		return
	}
	if err == nil {
		fl.committed = true
		//serlint:allow detrange commutative: every sibling attempt is cancelled regardless of visit order
		for _, cancel := range fl.attempts {
			if cancel != nil {
				cancel()
			}
		}
		delete(d.flights, fl.task.lo)
		copy(d.out[fl.task.lo:fl.task.hi], vals)
		if cerr := d.st.CommitSites(fl.task.lo, fl.task.hi, vals); cerr != nil {
			d.fatal = cerr
			d.closeLocked()
			d.mu.Unlock()
			return
		}
		d.left--
		if d.left == 0 {
			d.closeLocked()
		} else {
			d.wakeLocked()
		}
		d.mu.Unlock()
		br.onSuccess()
		return
	}
	if d.ctx.Err() != nil {
		// The request itself is over; this failure says nothing about the
		// worker and there is nothing left to retry.
		d.mu.Unlock()
		return
	}
	d.lastErr = err
	fl.task.attempts++
	if len(fl.attempts) > 0 {
		// A hedge sibling is still racing this shard: leave the flight to
		// it instead of requeueing a range that may yet succeed.
		d.mu.Unlock()
		br.onFailure(time.Now())
		return
	}
	delete(d.flights, fl.task.lo)
	t := fl.task
	if t.attempts >= d.co.maxAttempts {
		if d.partial {
			d.co.holes.Add(1)
			d.co.logf("serd: shard [%d,%d) abandoned after %d attempts (%v); continuing toward a partial result", t.lo, t.hi, t.attempts, err)
			d.left--
			if d.left == 0 {
				d.closeLocked()
			}
			d.mu.Unlock()
			br.onFailure(time.Now())
			return
		}
		d.fatal = fmt.Errorf("serd: shard [%d,%d) failed %d times: %w", t.lo, t.hi, t.attempts, err)
		d.closeLocked()
		d.mu.Unlock()
		br.onFailure(time.Now())
		return
	}
	delay := d.co.backoffDelay(t.attempts)
	d.co.retries.Add(1)
	d.mu.Unlock()
	br.onFailure(time.Now())
	time.AfterFunc(delay, func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		if !d.closed {
			d.pending = append(d.pending, t)
			d.wakeLocked()
		}
	})
}

// failIfUnreachable resolves a dispatch whose remaining work the fleet
// can no longer reach: every worker's breaker is open and no shard
// attempt is in flight, so the pending ranges would wait on health probes
// that are not succeeding — possibly forever, if the fleet is gone for
// good. A partial dispatch abandons the remaining ranges as holes; a
// strict one fails the request (the breakers persist, so a later request
// still readmits the fleet the moment a probe succeeds). Called by a
// puller whose own health probe just failed; reports true when the
// dispatch was closed and the puller should stop.
func (d *dispatch) failIfUnreachable(perr error) bool {
	//serlint:allow detrange commutative all-open predicate over the breaker set; order cannot change the answer
	for _, br := range d.co.breakers {
		if br.snapshot().State != BreakerOpen {
			return false
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return true
	}
	//serlint:allow detrange commutative any-in-flight predicate; order cannot change the answer
	for _, f := range d.flights {
		if len(f.attempts) > 0 {
			return false
		}
	}
	err := fmt.Errorf("serd: all %d worker(s) unhealthy with %d shard range(s) unresolved (last shard error: %v): %w", len(d.co.breakers), d.left, d.lastErr, perr)
	if d.partial {
		d.co.holes.Add(int64(d.left))
		d.co.logf("%v; continuing toward a partial result", err)
		d.left = 0
		d.closeLocked()
		return true
	}
	d.fatal = err
	d.closeLocked()
	return true
}

// sleepUntil waits for a wake signal (nil to ignore), the wait hint, or
// the end of the dispatch/request. It reports false when the worker
// should stop pulling.
func (d *dispatch) sleepUntil(wakeCh <-chan struct{}, wait time.Duration) bool {
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	if wakeCh == nil {
		select {
		case <-d.done:
			return false
		case <-d.ctx.Done():
			return false
		case <-timer.C:
			return true
		}
	}
	select {
	case <-d.done:
		return false
	case <-d.ctx.Done():
		return false
	case <-wakeCh:
		return true
	case <-timer.C:
		return true
	}
}

// runWorker is one worker's puller loop: gate on the worker's breaker
// (probing /v1/healthz when the open interval elapses), take work, attempt
// it under the per-shard deadline, and resolve the outcome. The loop exits
// when the dispatch completes, the request context ends, or — via
// failIfUnreachable — the whole fleet is unhealthy with work still
// unresolved. Short of that, an unhealthy worker idles on its breaker
// instead of retiring, so it rejoins as soon as a probe succeeds.
func (co *coordinator) runWorker(d *dispatch, base string) {
	br := co.breakers[base]
	for {
		select {
		case <-d.done:
			return
		case <-d.ctx.Done():
			return
		default:
		}
		ok, probe, wait := br.admit(time.Now())
		if !ok {
			if !d.sleepUntil(nil, wait) {
				return
			}
			continue
		}
		if probe {
			healthy := co.probeWorker(d.ctx, base) == nil
			br.probeResult(time.Now(), healthy)
			if !healthy {
				if d.failIfUnreachable(fmt.Errorf("worker %s health probe failed", base)) {
					return
				}
				continue
			}
		}
		fl, hedged, wakeCh, wait := d.take(base, time.Now())
		if fl == nil {
			if wakeCh == nil {
				return // dispatch closed
			}
			if !d.sleepUntil(wakeCh, wait) {
				return
			}
			continue
		}
		if hedged {
			co.hedges.Add(1)
		}
		actx, cancel := d.attemptContext()
		if !d.register(fl, base, cancel) {
			cancel()
			continue
		}
		co.dispatched.Add(1)
		vals, err := co.callShard(actx, base, d.src, d.opts, d.info, fl.task.lo, fl.task.hi)
		cancel()
		d.finish(base, br, fl, vals, err)
	}
}

// probeWorker sends the lightweight health probe an open breaker requires
// before readmitting a worker.
func (co *coordinator) probeWorker(ctx context.Context, base string) error {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serd: worker %s healthz: HTTP %d", base, resp.StatusCode)
	}
	return nil
}

// psensitized computes the full P_sensitized vector for the described
// request by sharding it over the worker fleet. Committed shard ranges are
// tracked through the resume machinery — file-backed under CheckpointDir
// (durable across requests: a retried request re-dispatches only the
// missing ranges; a corrupt checkpoint is quarantined and the sweep
// restarts fresh), in-memory otherwise — and the returned vector is
// bit-identical to a local full sweep at any shard partitioning, worker
// count, retry and hedge history. With allowPartial, shards that exhaust
// their retry budget are returned as explicit uncovered ranges instead of
// failing the request; the values at uncovered positions are unspecified
// and must not be read.
func (co *coordinator) psensitized(ctx context.Context, c *netlist.Circuit, src CircuitSource, opts Options, info ser.Info, allowPartial bool) ([]float64, []Range, error) {
	n := c.N()
	ck := resume.InMemory()
	if co.checkpointDir != "" {
		ck = resume.New(filepath.Join(co.checkpointDir, info.Fingerprint+".ckpt"), 0)
	}
	st, ce, err := ck.ArmRecovering(info.Engine, info.Fingerprint, resume.KindSites, n)
	if ce != nil {
		co.logf("serd: %v; restarting the sweep fresh", ce)
	}
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, n)
	restored := st.RestoreSites(out)
	chunk := (n + co.shards - 1) / co.shards
	tasks := pendingShardTasks(n, chunk, restored)
	if len(tasks) == 0 {
		return out, nil, nil
	}

	d := &dispatch{
		co:      co,
		ctx:     ctx,
		st:      st,
		out:     out,
		src:     src,
		opts:    opts,
		info:    info,
		pending: tasks,
		flights: make(map[int]*flight),
		left:    len(tasks),
		partial: allowPartial,
		done:    make(chan struct{}),
		wake:    make(chan struct{}),
	}
	var wg sync.WaitGroup
	for _, base := range co.workers {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			co.runWorker(d, base)
		}(base)
	}
	wg.Wait()
	// Flush whatever committed — under a checkpoint dir, even a failed
	// request leaves durable progress for the next attempt.
	if ferr := st.Flush(); ferr != nil && d.fatal == nil {
		d.fatal = ferr
	}
	switch {
	case d.fatal != nil:
		return nil, nil, d.fatal
	case ctx.Err() != nil:
		return nil, nil, ctx.Err()
	case d.left > 0:
		// Unreachable by construction (pullers only stop at done/ctx), but
		// refuse to hand back a silently incomplete vector.
		return nil, nil, fmt.Errorf("serd: %d shard(s) unresolved (last error: %v)", d.left, d.lastErr)
	}
	if uncovered := uncoveredRanges(n, st.DoneRanges()); len(uncovered) > 0 {
		return out, uncovered, nil
	}
	return out, nil, nil
}

// callShard posts one shard request to a worker and validates the response:
// the returned fingerprint must match the coordinator's — a worker running
// a different build or model would otherwise fold skewed values into a
// result stamped with this sweep's identity — the range and value count
// must echo the request, and every value must be a finite probability in
// [0,1]; a NaN, infinity or out-of-range value is a per-worker error (it
// counts toward the breaker) rather than something to fold into a
// committed checkpoint.
func (co *coordinator) callShard(ctx context.Context, base string, src CircuitSource, opts Options, info ser.Info, lo, hi int) ([]float64, error) {
	sreq := ShardRequest{
		Circuit: src,
		Options: opts,
		Lo:      lo,
		Hi:      hi,
	}
	body, err := json.Marshal(&sreq)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := co.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("serd: worker %s: shard [%d,%d): HTTP %d: %s", base, lo, hi, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var sresp ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sresp); err != nil {
		return nil, fmt.Errorf("serd: worker %s: shard [%d,%d): %w", base, lo, hi, err)
	}
	if sresp.Fingerprint != info.Fingerprint {
		return nil, fmt.Errorf("serd: worker %s computed fingerprint %.12s for a sweep fingerprinted %.12s (version or model skew); refusing to fold", base, sresp.Fingerprint, info.Fingerprint)
	}
	if sresp.Lo != lo || sresp.Hi != hi || len(sresp.Values) != hi-lo {
		return nil, fmt.Errorf("serd: worker %s returned range [%d,%d) with %d values for requested [%d,%d)", base, sresp.Lo, sresp.Hi, len(sresp.Values), lo, hi)
	}
	vals := bitsFloat(sresp.Values)
	for i, v := range vals {
		if math.IsNaN(v) || v < 0 || v > 1 {
			co.valueRejects.Add(1)
			return nil, fmt.Errorf("serd: worker %s: shard [%d,%d): value for site %d is %s (bits 0x%016x), not a probability in [0,1]; refusing to fold",
				base, lo, hi, lo+i, strconv.FormatFloat(v, 'g', -1, 64), math.Float64bits(v))
		}
	}
	return vals, nil
}
