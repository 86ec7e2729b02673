// The five built-in Engine implementations (epp-batch, epp-scalar,
// monte-carlo, enum, bdd), all running on the one resilient sweep driver,
// resume.SweepSpans (site spans here, 64-vector words inside the Monte
// Carlo kernel): atomic-cursor span distribution, panic isolation,
// checkpoint/resume, deadlines and node budgets (see resilience.go).

package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bddsp"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/netlist"
	"repro/internal/resume"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// batchEngine is the production EPP backend: core.BatchAnalyzer sweeping up
// to 64 error sites per union-cone pass, optionally across workers — the
// one all-sites driver of the analytic method. Frames > 1 runs the same
// batches through EPPBatch and composes every site's result with the
// request's one flip-flop lookahead (seq.Lookahead), which the first
// worker builds on its analyzer and every worker then reads; the strike
// sweeps share the kernel, batch width and counters.
type batchEngine struct{}

func (batchEngine) Name() string { return "epp-batch" }
func (batchEngine) Class() Class { return ClassAnalytic }

func (batchEngine) PSensitizedAll(ctx context.Context, req *Request, out []float64) error {
	if err := checkOut(req, out); err != nil {
		return err
	}
	if req.Frames > 1 && req.Rules != core.RulesClosedForm {
		return fmt.Errorf("engine: Rules %v requires a single-frame analysis", req.Rules)
	}
	sp := req.sp()
	proto, err := core.New(req.Circuit, sp, core.Options{Rules: req.Rules, BatchWidth: req.BatchWidth})
	if err != nil {
		return err
	}
	chunk := proto.Batch().Width()
	// Sweep order: the cone-locality schedule by default, so lanes in one
	// batch share most of their union cone (under an ECO memo siteSweep
	// packs the schedule's misses into full batches); ascending node IDs
	// when the caller needs OnBatch's out[lo:hi] ranges to be ID ranges
	// (streaming, a checkpoint, a shard). The kernel is packing-invariant
	// and the multi-cycle composition — including the latch-window strike
	// weight — is per-site arithmetic, so every order, width and worker
	// count produces bit-identical results.
	var order []netlist.ID
	if !req.sweepOrdered() {
		order = proto.Schedule().Order
	}
	w0 := req.strikeWeight()
	var look lookahead
	return siteSweep(ctx, req, "epp-batch", sp, chunk, order, out,
		func() (func(sites []netlist.ID) error, error) {
			local := proto.Clone()
			eng := local.Batch()
			la := look.get(req, local)
			// Sites are counted generically by siteSweep; only the kernel's
			// union-cone member count comes from here. The lookahead's
			// sweep, if this worker built it, is already counted.
			prevSwept, _ := eng.Counters()
			tmp := make([]float64, chunk)
			var res []core.Result
			if la != nil {
				res = make([]core.Result, chunk)
			}
			return func(sites []netlist.ID) error {
				if la == nil {
					eng.PSensitizedBatch(sites, tmp[:len(sites)])
				} else {
					eng.EPPBatch(sites, res[:len(sites)])
					for i := range sites {
						tmp[i] = la.PDetect(&res[i], req.Frames, w0)
					}
				}
				for i, site := range sites {
					out[site] = tmp[i]
				}
				if req.Stats != nil {
					swept, _ := eng.Counters()
					req.Stats.SweptNodes.Add(swept - prevSwept)
					prevSwept = swept
				}
				return nil
			}, nil
		})
}

// scalarEngine is the executable specification: one scalar EPP sweep per
// site (core.Analyzer.EPP), against which the batched engine is verified.
// Frames > 1 composes each strike sweep with the request's one flip-flop
// lookahead exactly as the batched engine does; the lookahead's own sweep
// is the only work this engine adds to Stats.SweptNodes.
type scalarEngine struct{}

func (scalarEngine) Name() string { return "epp-scalar" }
func (scalarEngine) Class() Class { return ClassAnalytic }

func (scalarEngine) PSensitizedAll(ctx context.Context, req *Request, out []float64) error {
	if err := checkOut(req, out); err != nil {
		return err
	}
	if req.Frames > 1 && req.Rules != core.RulesClosedForm {
		return fmt.Errorf("engine: Rules %v requires a single-frame analysis", req.Rules)
	}
	sp := req.sp()
	w0 := req.strikeWeight()
	var look lookahead
	return siteSweep(ctx, req, "epp-scalar", sp, 64, nil, out,
		func() (func(sites []netlist.ID) error, error) {
			an, err := core.New(req.Circuit, sp, core.Options{Rules: req.Rules, BatchWidth: req.BatchWidth})
			if err != nil {
				return nil, err
			}
			la := look.get(req, an)
			return func(sites []netlist.ID) error {
				for _, id := range sites {
					res := an.EPP(id)
					if la == nil {
						out[id] = res.PSensitized
					} else {
						out[id] = la.PDetect(&res, req.Frames, w0)
					}
				}
				return nil
			}, nil
		})
}

// lookahead is one analytic request's multi-cycle flip-flop lookahead,
// built by the first worker that asks for it — so a sweep with no pending
// sites, a full memo hit or a finished checkpoint, builds none — and shared
// read-only by every worker. Its sweep is counted once in
// Stats.SweptNodes, so the counter does not depend on the worker count.
type lookahead struct {
	once sync.Once
	la   *seq.Lookahead
}

// get returns the lookahead of req, building it on an if no worker has yet,
// or nil for a single-frame request.
func (l *lookahead) get(req *Request, an *core.Analyzer) *seq.Lookahead {
	if req.Frames <= 1 {
		return nil
	}
	l.once.Do(func() {
		eng := an.Batch()
		before, _ := eng.Counters()
		l.la = seq.NewLookahead(an, req.Frames)
		if req.Stats != nil {
			after, _ := eng.Counters()
			req.Stats.SweptNodes.Add(after - before)
		}
	})
	return l.la
}

// mcEngine is the random-vector fault-injection baseline, built on the
// shared-good-sim batched kernel simulate.MCBatch: the outer loop claims
// blocks of up to four 64-vector words through resume.SweepSpans, each word
// costs exactly one full-circuit good simulation per frame shared by every
// error site, and faulty re-simulation propagates one site at a time against
// the whole block. A single-frame request runs the kernel in single-cycle
// mode (P_sensitized: flip-flop captures count as detections); Frames > 1
// runs it in multi-cycle mode (detection probability: corrupted flip-flop
// state carries across clock edges and only primary-output differences count
// — the same quantity the analytic engines compute through internal/seq).
// Vectors follow the shared-stream regime (word-indexed seeding), so results
// are identical at any worker count; see MCOptions.SharedVectors and
// SeqOptions.SharedVectors for the reproducibility contracts. Because the
// sweep is word-major, per-site results all finalize together: OnBatch calls
// arrive after the last word, tiling [0, N) in order, while OnProgress ticks
// per completed block and cancellation is checked between blocks.
//
// Resilience follows the word-major shape and lives in mcSweep, which owns
// the sweep totals: a checkpoint commits each completed block's words with
// the totals (folded per block, in the same step as the commit) and is
// flushed on every exit path, the MaxSweepNodes budget maps to an exact
// word budget, and kernel or callback panics surface as *SweepPanicError
// with Unit "words" and the failing block's word range.
type mcEngine struct{}

func (mcEngine) Name() string { return "monte-carlo" }
func (mcEngine) Class() Class { return ClassSampling }

func (mcEngine) PSensitizedAll(ctx context.Context, req *Request, out []float64) error {
	if err := checkOut(req, out); err != nil {
		return err
	}
	n := req.Circuit.N()
	if err := req.checkRestore(req.SiteHi > req.SiteLo, true); err != nil {
		return err
	}
	if req.Memo == nil {
		if err := mcSweep(ctx, req, out); err != nil {
			return err
		}
	} else {
		// All-or-nothing reuse: the shared-good-sim kernel prices a sweep by
		// vector words (one good simulation per word amortized across every
		// site), so skipping a site subset saves nothing — a full-circuit
		// hit skips the whole sweep, any miss recomputes every site and
		// stores the complete vector back. The memo key folds in the ordered
		// source-ID list (see Request.memoKey), so a source-set edit — which
		// shifts every later source's vector stream — can never alias.
		hashes := req.Memo.Hashes(req.Circuit, req.memoFrames())
		key := req.memoKey("monte-carlo", true)
		if _, hits := req.Memo.Lookup(key, hashes, out); hits == n {
			if req.Stats != nil {
				req.Stats.MemoHits.Add(int64(n))
			}
			if req.OnProgress != nil {
				req.OnProgress(n, n)
			}
		} else {
			// Partial hits were written into out; the full recompute
			// overwrites every entry, so nothing stale can survive.
			if err := mcSweep(ctx, req, out); err != nil {
				return err
			}
			req.Memo.Store(key, hashes, siteIDs(n), out)
			if err := req.Memo.Flush(); err != nil {
				return err
			}
		}
	}
	if req.OnBatch != nil {
		for _, r := range resume.Pending(0, n, 64, nil) {
			if err := callOnBatch(req.OnBatch, r.Lo, r.Hi); err != nil {
				return wrapSweepErr("monte-carlo", n, n, err)
			}
		}
	}
	return nil
}

// mcSweep runs the batched kernel over every word of the request with the
// word-major resilience layer — checkpoint restore and per-block commits,
// the exact word budget, progress in node units and the final flush — and
// writes the per-site estimates into out. The kernel only runs blocks; the
// totals live here, and each block is folded into them in the same step as
// its commit, so they never include an uncommitted word.
func mcSweep(ctx context.Context, req *Request, out []float64) error {
	c := req.Circuit
	n := c.N()
	// simulate.MCBatch always draws the shared-stream vectors, so
	// SharedVectors stays unset.
	opt := simulate.MCOptions{Vectors: req.Vectors, Seed: req.Seed, SourceProb: req.Bias}
	words := opt.Words()
	// Latch-window weighting applies to the multi-cycle composition only; at
	// weight 1 PDetectWeighted is the plain detection probability.
	var mb *simulate.MCBatch
	w0 := 1.0
	if req.Frames > 1 {
		mb, w0 = simulate.NewMCSeqBatch(c, opt, req.Frames), req.strikeWeight()
	} else {
		mb = simulate.NewMCBatch(c, opt)
	}
	tot := mb.NewCounters()
	var (
		rs       *resume.State
		restored []resume.Range
		doneBase int
	)
	if req.Resume != nil {
		// Corrupt checkpoints are quarantined and the sweep restarts fresh;
		// see the site-major path for the rationale. Arm has validated the
		// done ranges against the word count; the counters' shape is checked
		// here, as the file is outside input.
		var err error
		rs, _, err = req.Resume.ArmRecovering("monte-carlo", req.Fingerprint("monte-carlo", nil), resume.KindWords, words)
		if err != nil {
			return err
		}
		if cnt := rs.Counters(); cnt != nil {
			if len(cnt.Detected) != len(tot.Detected) || len(cnt.Later) != len(tot.Later) || len(cnt.Frames) != len(tot.Frames) {
				return fmt.Errorf("engine: checkpoint counters have %d/%d/%d detected/later/frame entries, the sweep wants %d/%d/%d",
					len(cnt.Detected), len(cnt.Later), len(cnt.Frames), len(tot.Detected), len(tot.Later), len(tot.Frames))
			}
			tot.Add(cnt)
		}
		restored, doneBase = rs.DoneRanges(), rs.DoneUnits()
	}
	spans := resume.Pending(0, words, simulate.MCBlock, restored)
	budgetHit := false
	if req.MaxSweepNodes > 0 {
		// Map the node budget to new words: one word advances every site by
		// one 64-vector step, i.e. n/words node units. Exactly b new words
		// run: the span the budget ends inside is cut there, and the spans
		// after it are dropped.
		b := max((req.MaxSweepNodes*words+n-1)/n, 1)
		for i, s := range spans {
			if b <= s.Hi-s.Lo {
				budgetHit = b < s.Hi-s.Lo || i+1 < len(spans)
				spans[i].Hi = s.Lo + b
				spans = spans[:i+1]
				break
			}
			b -= s.Hi - s.Lo
		}
	}
	wordsDone := doneBase // for partial-progress metadata
	var visits int64
	err := mb.Sweep(ctx, req.Workers, spans, doneBase,
		func(lo, hi int, blk *resume.Counters, v int64) error {
			tot.Add(blk)
			visits += v
			if rs == nil {
				return nil
			}
			return rs.CommitWords(lo, hi, func() resume.Counters { return *tot.Clone() })
		},
		func(done, total int) {
			wordsDone = done
			if req.OnProgress != nil {
				// Word-granular progress, scaled to node units: after word k
				// of W the sweep has done k/W of its total work on every site.
				req.OnProgress(n*done/total, n)
			}
		})
	if err == nil && budgetHit {
		err = ErrBudget
	}
	if rs != nil {
		// Flush on every path: the interval cadence may not have written the
		// last commits, and the totals cover exactly the committed words —
		// on success every word, so a re-run restores the full result
		// without any simulation. After an abort the primary error is
		// already on its way to the caller; a failed best-effort flush must
		// not mask it.
		if ferr := rs.FlushCounters(tot); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return wrapSweepErr("monte-carlo", n, n*wordsDone/words, err)
	}
	res := mb.Results(tot)
	for id := range res {
		out[id] = res[id].PDetectWeighted(w0)
	}
	if req.Stats != nil {
		req.Stats.GoodSims.Add(tot.GoodSims)
		req.Stats.Words.Add(tot.Words)
		req.Stats.SweptNodes.Add(visits)
		req.Stats.Sites.Add(int64(n))
	}
	return nil
}

// enumEngine computes ground truth by exhaustive input enumeration (uniform
// sources, at most exact.MaxSupport of them). Chunk size 1: each site is
// 2^sources simulations, so cancellation is checked per site.
type enumEngine struct{}

func (enumEngine) Name() string { return "enum" }
func (enumEngine) Class() Class { return ClassExact }

func (enumEngine) PSensitizedAll(ctx context.Context, req *Request, out []float64) error {
	if err := checkOut(req, out); err != nil {
		return err
	}
	if req.Frames > 1 {
		return fmt.Errorf("engine: enum does not support multi-cycle frames")
	}
	if req.Bias != nil {
		return fmt.Errorf("engine: enum supports only uniform sources (Bias must be nil; use the bdd engine for biased sources)")
	}
	c := req.Circuit
	return siteSweep(ctx, req, "enum", nil, 1, nil, out,
		func() (func(sites []netlist.ID) error, error) {
			return func(sites []netlist.ID) error {
				for _, id := range sites {
					p, err := exact.PSensitized(c, id)
					if err != nil {
						return err
					}
					out[id] = p
				}
				return nil
			}, nil
		})
}

// bddEngine computes ground truth with a BDD good/faulty miter per site,
// with per-source bias and a node budget that turns blow-ups into errors.
type bddEngine struct{}

func (bddEngine) Name() string { return "bdd" }
func (bddEngine) Class() Class { return ClassExact }

func (bddEngine) PSensitizedAll(ctx context.Context, req *Request, out []float64) error {
	if err := checkOut(req, out); err != nil {
		return err
	}
	if req.Frames > 1 {
		return fmt.Errorf("engine: bdd does not support multi-cycle frames")
	}
	c := req.Circuit
	return siteSweep(ctx, req, "bdd", nil, 1, nil, out,
		func() (func(sites []netlist.ID) error, error) {
			return func(sites []netlist.ID) error {
				for _, id := range sites {
					p, err := bddsp.PSensitized(c, id, req.Bias, req.BDDBudget)
					if err != nil {
						return err
					}
					out[id] = p
				}
				return nil
			}, nil
		})
}
