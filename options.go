// Functional options for Run and RunStream, and the option-combination
// cross-checks applied before any work starts.

package sersim

import (
	"context"
	"fmt"
	"iter"
	"time"

	"repro/internal/eco"
	"repro/internal/engine"
	"repro/internal/ser"
)

// Option configures a Run or RunStream call. Options are applied in order;
// contradictory combinations (e.g. WithMethod(MethodMonteCarlo) together
// with an EPP engine, or multi-cycle frames on a backend that cannot follow
// errors through flip-flops) are rejected with a descriptive error before
// any work starts.
type Option func(*runConfig) error

// runConfig accumulates option state. The explicit-set flags let Run
// distinguish "defaulted" from "requested" when checking for contradictions
// the zero values would mask.
type runConfig struct {
	cfg       ser.Config
	methodSet bool
	engineSet bool
}

// prepare applies the options, cross-checks explicit requests and prepares
// the resulting configuration against c.
func prepare(c *Circuit, opts []Option) (*ser.Prepared, error) {
	rc := &runConfig{}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(rc); err != nil {
			return nil, err
		}
	}
	if rc.methodSet && rc.engineSet {
		eng, err := engine.Lookup(rc.cfg.Engine)
		if err != nil {
			return nil, err
		}
		wantSampling := rc.cfg.Method == MethodMonteCarlo
		isSampling := eng.Class() == engine.ClassSampling
		isAnalytic := eng.Class() == engine.ClassAnalytic
		if (wantSampling && !isSampling) || (!wantSampling && !isAnalytic) {
			return nil, fmt.Errorf("sersim: WithMethod(%v) contradicts WithEngine(%q) (a %v engine); pick one",
				rc.cfg.Method, eng.Name(), eng.Class())
		}
	}
	return ser.Prepare(c, rc.cfg)
}

// WithMethod selects the P_sensitized estimator family: MethodEPP (the
// paper's analysis, default) or MethodMonteCarlo (the random-simulation
// baseline). For finer backend control use WithEngine.
func WithMethod(m Method) Option {
	return func(rc *runConfig) error {
		rc.cfg.Method = m
		rc.methodSet = true
		return nil
	}
}

// WithSPMethod selects the signal probability source feeding the EPP
// engines: SPTopological (fast Parker–McCluskey sweep, default) or
// SPMonteCarlo (bit-parallel random simulation).
func WithSPMethod(m SPMethod) Option {
	return func(rc *runConfig) error {
		rc.cfg.SPMethod = m
		return nil
	}
}

// WithEngine selects a named P_sensitized backend from the engine registry
// — see Engines for the registered set ("epp-batch", "epp-scalar",
// "monte-carlo", "enum", "bdd", plus any future backends). It overrides the
// WithMethod-derived default.
func WithEngine(name string) Option {
	return func(rc *runConfig) error {
		rc.cfg.Engine = name
		rc.engineSet = true
		return nil
	}
}

// WithFrames extends the analysis across clock cycles: an error captured by
// flip-flops in the strike cycle keeps propagating for up to frames cycles
// (the sequential extension), and detection means a primary output differs
// in some frame. frames <= 1 is the paper's single-cycle analysis. The
// analytic engines compose single-frame EPP sweeps; the monte-carlo engine
// runs the frame-unrolled batched fault-injection kernel — so WithFrames
// composes with WithEngine("monte-carlo") and with
// WithMethod(MethodMonteCarlo). Only the exact engines (enum, bdd) reject
// it; see the package documentation for the engine support matrix.
// WithFrames also composes with WithLatchModel: supplying both runs the
// latch-window-weighted multi-cycle mode (see WithLatchModel).
func WithFrames(frames int) Option {
	return func(rc *runConfig) error {
		rc.cfg.Frames = frames
		return nil
	}
}

// WithWorkers bounds the P_sensitized sweep's parallelism: 0 (default)
// means all cores, 1 forces a serial sweep. Results are identical at any
// worker count; RunStream always sweeps serially for ordered emission.
func WithWorkers(workers int) Option {
	return func(rc *runConfig) error {
		rc.cfg.Workers = workers
		return nil
	}
}

// WithBatchWidth sets the batched EPP engine's lane count — how many error
// sites share one union-cone sweep (0 = default, clamped to the engine
// maximum). Mostly a tuning and debugging knob.
func WithBatchWidth(width int) Option {
	return func(rc *runConfig) error {
		rc.cfg.BatchWidth = width
		return nil
	}
}

// WithRules selects the EPP engines' gate-rule implementation:
// RulesClosedForm (the paper's Table 1 product formulas, default),
// RulesPairwise (the exhaustive 4×4 symbol fold — same results, an
// executable specification), or RulesNoPolarity (the ablation of the
// paper's polarity tracking, for quantifying what the four-valued states
// buy). Requires an analytic (EPP) engine and a single-frame analysis;
// contradictory combinations are rejected before any work starts.
func WithRules(r RuleSet) Option {
	return func(rc *runConfig) error {
		rc.cfg.Rules = r
		return nil
	}
}

// WithVectors sets the random-vector budget per site for the Monte Carlo
// estimator (0 = default).
func WithVectors(vectors int) Option {
	return func(rc *runConfig) error {
		rc.cfg.MC.Vectors = vectors
		return nil
	}
}

// WithSPVectors sets the vector budget for Monte Carlo signal probability
// computation (0 = default; only consulted with WithSPMethod(SPMonteCarlo)).
func WithSPVectors(vectors int) Option {
	return func(rc *runConfig) error {
		rc.cfg.SP.Vectors = vectors
		return nil
	}
}

// WithSeed fixes every randomized component (signal probability simulation
// and the Monte Carlo estimator), making runs reproducible.
func WithSeed(seed uint64) Option {
	return func(rc *runConfig) error {
		rc.cfg.SP.Seed = seed
		rc.cfg.MC.Seed = seed
		return nil
	}
}

// WithSourceBias sets the per-source probability of logic 1, indexed by
// node ID (primary inputs and flip-flop outputs; other entries are
// ignored). Nil means 0.5 everywhere. Entries must lie in [0,1] and the
// slice must cover every node.
func WithSourceBias(prob1 []float64) Option {
	return func(rc *runConfig) error {
		rc.cfg.SP.SourceProb = prob1
		rc.cfg.MC.SourceProb = prob1
		return nil
	}
}

// WithBDDBudget bounds the bdd engine's node count, turning BDD blow-ups
// into errors instead of hangs (0 = default budget).
func WithBDDBudget(nodes int) Option {
	return func(rc *runConfig) error {
		rc.cfg.BDDBudget = nodes
		return nil
	}
}

// WithFaultModel replaces the default R_SEU model.
func WithFaultModel(m FaultModel) Option {
	return func(rc *runConfig) error {
		rc.cfg.Faults = &m
		return nil
	}
}

// WithLatchModel replaces the default P_latched model (the static per-node
// latching-window factor of the SER decomposition).
//
// Combined with WithFrames(n) for n > 1 it additionally couples the
// latching window into the multi-cycle composition: each frame's detection
// contribution is weighted by the model's per-frame capture weight
// (LatchModel.FrameWeight) — the strike-cycle transient races the capturing
// register's window, while detections in later frames are re-launched
// flip-flop values held for a full cycle and count in full. The analytic
// engines scale the strike term of the frame composition; the monte-carlo
// engine composes the identical quantity from the kernel's integer
// per-frame detection counters, so the two stay in statistical agreement
// and all bit-exactness and worker-invariance guarantees are preserved.
// Without WithLatchModel, a multi-cycle run keeps the uncoupled composition
// (every detection counted in full) under the default static factor —
// pass WithLatchModel(DefaultLatchModel()) to opt the default parameters
// into the weighted mode.
func WithLatchModel(m LatchModel) Option {
	return func(rc *runConfig) error {
		rc.cfg.Latch = &m
		return nil
	}
}

// WithProgress registers a callback observing sweep progress: done node
// units of work finished out of total. Site-major engines report after each
// completed batch; the word-major monte-carlo engine reports after each
// completed block of up to four 64-vector words, scaled to node units, so
// long sampling sweeps show incremental completion even though their
// per-site results all finalize at the last block. done never decreases, reaches total exactly at
// completion, and calls never overlap.
func WithProgress(fn func(done, total int)) Option {
	return func(rc *runConfig) error {
		rc.cfg.Progress = fn
		return nil
	}
}

// WithTimeout bounds the whole run: the pipeline context gets a deadline,
// enforced by every engine at batch/word granularity. An expired deadline
// surfaces as a *PartialError wrapping context.DeadlineExceeded — test with
// errors.Is(err, context.DeadlineExceeded) — carrying how many node units
// had finalized. Combined with WithCheckpoint the finalized work is durable,
// so repeatedly re-running a deadlined request converges to completion.
func WithTimeout(d time.Duration) Option {
	return func(rc *runConfig) error {
		rc.cfg.Timeout = d
		return nil
	}
}

// WithMaxSweepNodes bounds the node units of new P_sensitized work one call
// may perform (0 = unlimited): site-major engines stop at the first batch
// boundary at or past the budget, the word-major monte-carlo engine at the
// equivalent word boundary. A budgeted stop surfaces as a *PartialError
// wrapping ErrSweepBudget. Like WithTimeout, it composes with
// WithCheckpoint into incremental runs that converge to completion.
func WithMaxSweepNodes(n int) Option {
	return func(rc *runConfig) error {
		rc.cfg.MaxSweepNodes = n
		return nil
	}
}

// WithCheckpoint makes the sweep crash-safe: progress — completed site
// batches or vector words plus their integer counters — is committed to the
// file at path (atomically, temp+rename; format documented in
// internal/resume), at most every interval (interval <= 0 commits after
// every unit). A later identical Run against the same path skips the
// completed work and folds the saved results in, producing a Report
// byte-identical to an uninterrupted run on every engine. The checkpoint
// records a fingerprint of everything that affects results (circuit
// content, engine, seed, vectors, frames, models…); resuming with a
// different configuration is an error, while scheduling knobs (WithWorkers,
// WithBatchWidth) may change freely between runs — results are
// worker-invariant. Delete the file to start fresh.
func WithCheckpoint(path string, interval time.Duration) Option {
	return func(rc *runConfig) error {
		if path == "" {
			return fmt.Errorf("sersim: WithCheckpoint with an empty path")
		}
		rc.cfg.CheckpointPath = path
		rc.cfg.CheckpointInterval = interval
		return nil
	}
}

// WithECOCache makes repeated runs incremental across netlist edits via a
// directory-backed ECO cache: per-site results are memoized keyed by a
// content hash of each site's observation cone, so re-running an edited
// circuit (after a TMR transform, say) recomputes only the sites whose
// cones the edit touched and restores the rest bit-identically — the Report
// is byte-identical to an uncached run. The directory is created if needed;
// corrupted cache files degrade to misses, never to stale results.
// Requires a configuration whose per-site values are pure functions of cone
// content: the default topological signal probabilities with unbiased
// sources, and no WithCheckpoint — anything else is rejected up front. The
// monte-carlo engine reuses all-or-nothing (its shared-good-sim kernel
// prices a sweep by words, not sites). RunStream ignores the cache (ordered
// emission). See internal/eco for the soundness argument.
func WithECOCache(dir string) Option {
	return func(rc *runConfig) error {
		cache, err := eco.Open(dir)
		if err != nil {
			return err
		}
		rc.cfg.ECO = cache
		return nil
	}
}

// WithECO attaches an in-process ECO cache handle (NewECOCache or
// OpenECOCache), letting many Run calls — the interactive
// rank → harden → re-estimate loop — share one memo without re-reading the
// cache directory per call. Same eligibility rules as WithECOCache.
func WithECO(cache *ECOCache) Option {
	return func(rc *runConfig) error {
		rc.cfg.ECO = cache
		return nil
	}
}

// Run executes the full SER pipeline on circuit c — signal probabilities,
// per-site P_sensitized through the selected engine, the R_SEU and
// P_latched models — and returns the assembled per-node report. The zero
// option set reproduces the paper's configuration: the batched EPP engine
// over topological signal probabilities with the default technology models.
//
// Cancellation of ctx is honored between engine batches: Run returns
// ctx.Err() promptly without draining the remaining sweep.
func Run(ctx context.Context, c *Circuit, opts ...Option) (*Report, error) {
	p, err := prepare(c, opts)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// RunStream is the incremental form of Run: it yields one NodeSER per node
// in ID order as each engine batch completes, so million-gate sweeps need
// not hold a full Report in memory. The sequence yields exactly the NodeSER
// values Run would report. On failure or cancellation the final yield
// carries the error with a zero NodeSER; breaking out of the loop stops the
// sweep after the current batch. The analytic and exact engines sweep
// serially so emission order is deterministic — use Run for multi-core
// sweeps.
//
// The monte-carlo engine is word-major: sharing one good simulation per
// 64-vector word across all sites (its defining invariant) means every
// site's estimate finalizes together at the last word, so its yields
// arrive as ordered batches once the sweep completes. Incremental
// observation during the sweep comes through WithProgress, which ticks per
// completed word; cancellation stays word-granular throughout.
func RunStream(ctx context.Context, c *Circuit, opts ...Option) iter.Seq2[NodeSER, error] {
	p, err := prepare(c, opts)
	if err != nil {
		return func(yield func(NodeSER, error) bool) {
			yield(NodeSER{}, err)
		}
	}
	return p.Stream(ctx)
}

// Engines returns the names of the registered P_sensitized backends, sorted
// — the valid arguments to WithEngine.
func Engines() []string { return engine.Names() }

// Fingerprint returns the hex SHA-256 request fingerprint of running the
// given options on c: a hash of the circuit's content (Circuit.ContentHash)
// plus every result-affecting option — engine, frames, vectors, seed, rules,
// bias, resolved signal probabilities, latch parameters. Two calls with
// equal fingerprints produce byte-identical Reports, so the fingerprint is a
// sound memoization key; pure scheduling knobs (WithWorkers, WithBatchWidth)
// are excluded because results are invariant across them. It is the same
// fingerprint WithCheckpoint records in checkpoint files and the serd
// daemon uses as its report-cache key. The options are validated exactly as
// Run would; contradictory combinations return an error.
func Fingerprint(c *Circuit, opts ...Option) (string, error) {
	p, err := prepare(c, opts)
	if err != nil {
		return "", err
	}
	return p.Info().Fingerprint, nil
}
