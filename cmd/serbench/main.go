// Command serbench regenerates the paper's Table 2: it runs the EPP analysis
// and the random-simulation baseline on the eleven ISCAS'89-profile circuits
// and prints runtime, accuracy and speedup columns in the paper's layout.
//
// Usage:
//
//	serbench [flags]
//
//	-circuits s953,s1196   comma-separated circuit names (default: all 11)
//	-vectors 10000         random vectors per sampled node for the baseline
//	-sample 50             error sites simulated by the baseline per circuit
//	-sp-vectors 100000     vectors for Monte Carlo signal probability
//	-seed 1                seed for all randomized components
//	-baseline naive        baseline engine: naive | bit-parallel
//	-workers 1             EPP sweep parallelism (1 = paper-style single CPU)
//	-csv out.csv           also write the table as CSV
//	-quick                 small vector counts for a fast smoke run
//	-timeout 0             overall wall-clock budget (0 = none)
//
// Modes beyond the main table:
//
//	-mode table2           the full Table 2 reproduction (default)
//	-mode sp-ablation      EPP accuracy with topological vs Monte Carlo SP
//	-mode exact-accuracy   EPP vs BDD-exact P_sensitized (small profiles)
//	-mode accuracy         per-engine accuracy vs the shared sampling reference
//	-mode bench            per-circuit P_sensitized kernel timing (ns/op, allocs/op)
//
// Bench mode times engines from the registry (-engine, a comma-separated
// list, default epp-batch; see sercalc -engines for the set). Each circuit
// is parsed and finalized exactly once per invocation — all timed engines
// share the one instance through the circuitio parse cache — and -json FILE
// additionally writes the measurements as a JSON array ({circuit, engine,
// nodes, gates, ns_per_op, allocs_per_op, bytes_per_op}) so successive runs
// can be tracked as a BENCH_*.json trajectory. Passing -json with the default mode
// implies -mode bench. -frames N > 1 times (or compares) the multi-cycle
// detection analysis instead of the single-cycle P_sensitized, for every
// engine that supports it (epp-batch, epp-scalar, monte-carlo).
// -latch "clock=1000,pulse=150,window=30,atten=0.95" (or -latch default)
// additionally couples the latching-window model into the multi-cycle
// composition — bench and accuracy modes then run the latch-window-weighted
// detection probability; keys may be omitted to keep the documented
// defaults. The flag requires -frames N > 1 and one of those two modes;
// combinations that would silently ignore it are rejected.
//
// Accuracy mode compares the engines named by -compare (default
// epp-batch,epp-scalar,monte-carlo) against one shared Monte Carlo
// reference pass per circuit: the reference P_sensitized vector is computed
// once per (circuit, vectors, seed, frames) and reused for every engine
// under comparison — including the monte-carlo engine itself — so the full
// good simulation runs exactly once per circuit no matter how many engines
// are compared. The goodsims/word column proves it: the shared kernels pin
// it at 1 per frame even though every comparison consumed the pass.
//
// With -timeout set, the deadline is honored at circuit granularity: the
// timed kernels run to completion (aborting mid-measurement would corrupt
// the row), but no new circuit starts once the budget is spent.
//
// Exit codes: 0 success, 2 usage error, 3 deadline exceeded (partial
// progress on stderr), 4 internal error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bddsp"
	"repro/internal/circuitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/latch"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/sigprob"
	"repro/internal/table2"
)

func main() {
	var (
		circuits  = flag.String("circuits", "", "comma-separated circuit names (default all)")
		vectors   = flag.Int("vectors", 10000, "random vectors per sampled node")
		sample    = flag.Int("sample", 50, "error sites simulated by the baseline")
		spVectors = flag.Int("sp-vectors", 100000, "vectors for Monte Carlo signal probability")
		seed      = flag.Uint64("seed", 1, "seed for randomized components")
		baseline  = flag.String("baseline", "naive", "baseline engine: naive | bit-parallel")
		workers   = flag.Int("workers", 1, "EPP sweep parallelism")
		csvPath   = flag.String("csv", "", "also write the table as CSV to this file")
		jsonPath  = flag.String("json", "", "write bench-mode measurements as JSON to this file")
		engName   = flag.String("engine", "epp-batch", "comma-separated P_sensitized engines timed by bench mode")
		compare   = flag.String("compare", "epp-batch,epp-scalar,monte-carlo", "engines compared by accuracy mode")
		frames    = flag.Int("frames", 1, "clock cycles for multi-cycle detection (bench and accuracy modes)")
		latchSpec = flag.String("latch", "", `latch-window coupling for multi-cycle runs: "default" or "clock=…,pulse=…,window=…,atten=…" (empty = uncoupled)`)
		quick     = flag.Bool("quick", false, "small vector counts for a fast smoke run")
		mode      = flag.String("mode", "table2", "table2 | sp-ablation | exact-accuracy | accuracy | bench")
		timeout   = flag.Duration("timeout", 0, "overall wall-clock budget, honored at circuit granularity (0 = none)")
	)
	flag.Parse()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	modeSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "mode" {
			modeSet = true
		}
	})
	if *jsonPath != "" && *mode != "bench" {
		if modeSet {
			// An explicitly requested non-bench mode must not be silently
			// replaced by the kernel benchmark.
			fmt.Fprintf(os.Stderr, "serbench: -json is only supported with -mode bench\n")
			os.Exit(2)
		}
		*mode = "bench"
	}

	cfg := table2.Config{
		MCVectors:   *vectors,
		SampleNodes: *sample,
		SPVectors:   *spVectors,
		Seed:        *seed,
		Workers:     *workers,
	}
	switch *baseline {
	case "naive":
		cfg.Baseline = table2.BaselineNaive
	case "bit-parallel":
		cfg.Baseline = table2.BaselineBitParallel
	default:
		fmt.Fprintf(os.Stderr, "serbench: unknown baseline %q\n", *baseline)
		os.Exit(2)
	}
	if *quick {
		cfg.MCVectors = 1024
		cfg.SampleNodes = 20
		cfg.SPVectors = 8192
	}

	var names []string
	if *circuits != "" {
		names = strings.Split(*circuits, ",")
	}

	lm, err := parseLatch(*latchSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serbench: %v\n", err)
		os.Exit(2)
	}
	if lm != nil {
		// Reject rather than silently ignore: only the multi-cycle bench and
		// accuracy paths consume the latch-window coupling (the engines
		// ignore Request.Latch for single-frame requests).
		if *mode != "bench" && *mode != "accuracy" {
			fmt.Fprintf(os.Stderr, "serbench: -latch is only consumed by -mode bench and -mode accuracy\n")
			os.Exit(2)
		}
		if *frames <= 1 {
			fmt.Fprintf(os.Stderr, "serbench: -latch weights the multi-cycle composition; pass -frames N > 1\n")
			os.Exit(2)
		}
	}

	switch *mode {
	case "table2":
		runTable2(ctx, names, cfg, *csvPath)
	case "sp-ablation":
		runSPAblation(ctx, names, cfg)
	case "exact-accuracy":
		runExactAccuracy(ctx, names, cfg)
	case "accuracy":
		runAccuracy(ctx, names, strings.Split(*compare, ","), *frames, cfg.Workers, cfg.MCVectors, cfg.Seed, lm)
	case "bench":
		runBench(ctx, names, strings.Split(*engName, ","), *jsonPath, *frames, cfg.Workers, cfg.MCVectors, cfg.Seed, lm)
	default:
		fmt.Fprintf(os.Stderr, "serbench: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// fatal reports a run error and exits with the documented code: 3 for a
// missed deadline (with partial sweep progress when an engine surfaced it),
// 4 for any other internal error.
func fatal(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		msg := "deadline exceeded"
		var perr *engine.PartialError
		if errors.As(err, &perr) {
			msg = fmt.Sprintf("deadline exceeded after %d/%d node units", perr.Done, perr.Total)
		}
		fmt.Fprintf(os.Stderr, "serbench: %s\n", msg)
		os.Exit(3)
	}
	fmt.Fprintf(os.Stderr, "serbench: %v\n", err)
	os.Exit(4)
}

// parseLatch parses the -latch flag: "" disables the latch-window coupling,
// "default" selects the documented default model, and a comma-separated
// "key=value" list over clock, pulse, window (ps) and atten overrides
// individual parameters of the default model.
func parseLatch(spec string) (*latch.Model, error) {
	if spec == "" {
		return nil, nil
	}
	m := latch.Default()
	if spec != "default" {
		for _, kv := range strings.Split(spec, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("-latch entry %q is not key=value", kv)
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("-latch %s: %v", key, err)
			}
			switch key {
			case "clock":
				m.ClockPeriodPs = f
			case "pulse":
				m.PulseWidthPs = f
			case "window":
				m.WindowPs = f
			case "atten":
				m.AttenuationPerLevel = f
			default:
				return nil, fmt.Errorf("-latch key %q (want clock, pulse, window or atten)", key)
			}
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// benchRow is one circuit's kernel measurement, serialized by -json. The
// counter ratios make the batching wins visible in the artifact trajectory:
// swept_nodes_per_site is the batched EPP engine's cone-locality
// efficiency (union-cone nodes swept per site; a full-cone per-site sweep
// would pay the mean cone size); good_sims_per_word is the sampling
// engine's good-simulation sharing (exactly 1 for the shared-good-sim
// kernel; the per-site estimator pays one per site). For the sampling
// engine swept_nodes_per_site is the gates its event-driven sweeps
// evaluated per site. Zero-valued counters (an engine that does not record
// them) are omitted.
type benchRow struct {
	Circuit           string  `json:"circuit"`
	Engine            string  `json:"engine"`
	Nodes             int     `json:"nodes"`
	Gates             int     `json:"gates"`
	Frames            int     `json:"frames,omitempty"` // only recorded for multi-cycle rows
	NsPerOp           float64 `json:"ns_per_op"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	BytesPerOp        int64   `json:"bytes_per_op"`
	SweptNodesPerSite float64 `json:"swept_nodes_per_site,omitempty"`
	GoodSimsPerWord   float64 `json:"good_sims_per_word,omitempty"`
}

// marshalBenchRows renders the bench measurements exactly as -json writes
// them (stable field order, two-space indent, trailing newline); factored
// out so the golden test pins the format.
func marshalBenchRows(rows []benchRow) ([]byte, error) {
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// benchCircuit times one engine's all-sites P_sensitized sweep on one
// circuit under the Go benchmark methodology. The warm-up pass doubles as
// the counted pass: it carries an engine.Stats whose ratios land in the
// row. workers bounds the sweep's parallelism (the -workers flag defaults
// to 1 so BENCH_*.json rows track the kernel, not the machine's core
// count); vectors/seed configure the sampling engines (0 = engine
// default); frames > 1 times the multi-cycle detection analysis instead,
// latch-window weighted when lm is non-nil (-latch).
func benchCircuit(ctx context.Context, eng engine.Engine, c *netlist.Circuit, frames, workers, vectors int, seed uint64, lm *latch.Model) (benchRow, error) {
	var stats engine.Stats
	req := engine.Request{
		Circuit: c,
		SP:      sigprob.Topological(c, sigprob.Config{}),
		Workers: workers,
		Frames:  frames,
		Latch:   lm,
		Vectors: vectors,
		Seed:    seed,
		Stats:   &stats,
	}
	out := make([]float64, c.N())
	// Warm the engine's scratch, count the work, and surface config errors
	// outside the timing loop. The deadline is checked here, not inside the
	// timed loop: an aborted measurement would corrupt the row.
	if err := ctx.Err(); err != nil {
		return benchRow{}, err
	}
	ctx = context.WithoutCancel(ctx)
	if err := eng.PSensitizedAll(ctx, &req, out); err != nil {
		return benchRow{}, err
	}
	req.Stats = nil // keep counter writes out of the timed loop
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := eng.PSensitizedAll(ctx, &req, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	row := benchRow{
		Circuit:           c.Name,
		Engine:            eng.Name(),
		Nodes:             c.N(),
		Gates:             c.Stats().Gates,
		NsPerOp:           float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp:       res.AllocsPerOp(),
		BytesPerOp:        res.AllocedBytesPerOp(),
		SweptNodesPerSite: stats.SweptNodesPerSite(),
		GoodSimsPerWord:   stats.GoodSimsPerWord(),
	}
	if frames > 1 {
		row.Frames = frames
	}
	return row, nil
}

// runBench times the all-sites P_sensitized kernel of the selected engine
// (the "SysT" quantity for the EPP engines) per circuit and optionally
// writes the rows as JSON, so future changes can be compared as a time
// series of BENCH_*.json files. Work-counter ratios (swept nodes per site,
// good sims per word) ride along so locality and good-sim-sharing wins show
// up in the artifact trajectory, not just wall-clock.
func runBench(ctx context.Context, names []string, engNames []string, jsonPath string, frames, workers, vectors int, seed uint64, lm *latch.Model) {
	// Resolve every engine up front so a typo anywhere in the list is a
	// usage error before any measurement starts.
	engs := make([]engine.Engine, 0, len(engNames))
	for _, en := range engNames {
		eng, err := engine.Lookup(strings.TrimSpace(en))
		if err != nil {
			fmt.Fprintf(os.Stderr, "serbench: %v\n", err)
			os.Exit(2)
		}
		engs = append(engs, eng)
	}
	if names == nil {
		names = gen.Names()
	}
	title := "all-sites P_sensitized kernel"
	if frames > 1 {
		title = fmt.Sprintf("all-sites multi-cycle detection kernel (%d frames)", frames)
		if lm != nil {
			title += ", latch-window weighted"
		}
	}
	t := report.NewTable(
		title,
		"Circuit", "Engine", "Nodes", "ns/op", "allocs/op", "B/op", "swept/site", "goodsims/word",
	)
	rows := make([]benchRow, 0, len(names)*len(engs))
	for _, name := range names {
		// One parse+finalize per circuit per invocation, no matter how many
		// engines time it: the shared circuitio cache hands every engine the
		// same finalized instance.
		c, err := loadProfile(name)
		if err != nil {
			fatal(err)
		}
		for _, eng := range engs {
			row, err := benchCircuit(ctx, eng, c, frames, workers, vectors, seed, lm)
			if err != nil {
				fatal(fmt.Errorf("%s/%s: %w", name, eng.Name(), err))
			}
			rows = append(rows, row)
			t.AddRowf(row.Circuit, row.Engine, row.Nodes, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp,
				row.SweptNodesPerSite, row.GoodSimsPerWord)
			fmt.Fprintf(os.Stderr, "done %-8s %-12s %.3fms/op %d allocs/op\n",
				name, row.Engine, row.NsPerOp/1e6, row.AllocsPerOp)
		}
	}
	t.AddNote("one op = P_sensitized for every node (default batch width %d)", core.DefaultBatchWidth)
	t.AddNote("ops go through the stateless engine API and include per-call engine construction, as does BenchmarkEPPAllNodes, which times the same epp-batch PSensitizedAll call")
	t.AddNote("swept/site = union-cone nodes per site (batched EPP) or gates evaluated per site (monte-carlo); goodsims/word = good sims per 64-vector word (sampling; the shared kernels pin it at 1 per frame)")
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if jsonPath != "" {
		buf, err := marshalBenchRows(rows)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

// accRow is one (circuit, engine) accuracy measurement of the accuracy mode.
type accRow struct {
	Circuit string
	Engine  string
	Sites   int
	MAE     float64 // mean |engine − reference| over all sites
	Worst   float64
}

// accuracyCircuit compares the named engines' all-sites P_sensitized (or
// multi-cycle detection, frames > 1) vectors against one shared Monte Carlo
// reference pass on circuit c. The fix this function embodies: the
// reference vector — a full shared-good-sim sampling sweep — is computed
// exactly once per (circuit, vectors, seed, frames) and reused for every
// engine under comparison, where the naive layout re-ran it once per
// engine. The returned Stats covers the whole comparison, so its good-sim
// counters prove the sharing: GoodSims == words × frames no matter how many
// engines consumed the pass (the monte-carlo engine included — it hits the
// same cache instead of re-sampling). The signal probability vector is
// likewise computed once and shared by the analytic engines.
func accuracyCircuit(ctx context.Context, c *netlist.Circuit, engines []string, frames, workers, vectors int, seed uint64, lm *latch.Model) ([]accRow, *engine.Stats, error) {
	stats := &engine.Stats{}
	sp := sigprob.Topological(c, sigprob.Config{})
	cache := map[string][]float64{}
	compute := func(name string) ([]float64, error) {
		if out, ok := cache[name]; ok {
			return out, nil
		}
		eng, err := engine.Lookup(name)
		if err != nil {
			return nil, err
		}
		req := engine.Request{
			Circuit: c,
			SP:      sp,
			Workers: workers,
			Frames:  frames,
			Latch:   lm,
			Vectors: vectors,
			Seed:    seed,
			Stats:   stats,
		}
		out := make([]float64, c.N())
		if err := eng.PSensitizedAll(ctx, &req, out); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cache[name] = out
		return out, nil
	}
	ref, err := compute("monte-carlo")
	if err != nil {
		return nil, nil, err
	}
	rows := make([]accRow, 0, len(engines))
	for _, name := range engines {
		out, err := compute(strings.TrimSpace(name))
		if err != nil {
			return nil, nil, err
		}
		row := accRow{Circuit: c.Name, Engine: strings.TrimSpace(name), Sites: c.N()}
		for id := range out {
			d := math.Abs(out[id] - ref[id])
			row.MAE += d
			if d > row.Worst {
				row.Worst = d
			}
		}
		row.MAE /= float64(c.N())
		rows = append(rows, row)
	}
	return rows, stats, nil
}

// runAccuracy (the -mode accuracy table): per-engine accuracy against the
// shared sampling reference on each circuit, with the good-sim counters
// printed so the one-pass sharing is visible in the output.
func runAccuracy(ctx context.Context, names, engines []string, frames, workers, vectors int, seed uint64, lm *latch.Model) {
	if names == nil {
		names = gen.Names()
	}
	title := "engine accuracy vs shared Monte Carlo reference"
	if frames > 1 {
		title = fmt.Sprintf("%s (%d frames)", title, frames)
		if lm != nil {
			title += " latch-window weighted"
		}
	}
	t := report.NewTable(title, "Circuit", "Engine", "Sites", "MAE", "Worst", "goodsims/word")
	for _, name := range names {
		c, err := loadProfile(name)
		if err != nil {
			fatal(err)
		}
		rows, stats, err := accuracyCircuit(ctx, c, engines, frames, workers, vectors, seed, lm)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		for _, r := range rows {
			t.AddRowf(r.Circuit, r.Engine, r.Sites, r.MAE, r.Worst, stats.GoodSimsPerWord())
		}
		fmt.Fprintf(os.Stderr, "done %-8s (%d engines, one reference pass)\n", name, len(engines))
	}
	t.AddNote("reference = monte-carlo engine at the same (vectors, seed, frames), computed once per circuit and shared across all compared engines")
	t.AddNote("goodsims/word counts the whole comparison: the shared pass pins it at the frame count (1 good sim per word per frame), not engines x frames")
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

// runExactAccuracy compares EPP against the symbolically exact (BDD-miter)
// P_sensitized on the small benchmark profiles — the strongest accuracy
// statement the harness can make, free of both sampling noise and the
// enumeration source limit. Circuits whose BDDs exceed the budget are
// skipped with a note.
func runExactAccuracy(ctx context.Context, names []string, cfg table2.Config) {
	if names == nil {
		names = gen.SmallNames()
	}
	const budget = 1 << 23
	t := report.NewTable(
		"EPP vs BDD-exact P_sensitized",
		"Circuit", "Sites", "MAE", "Worst", "%Dif-style",
	)
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			fatal(err)
		}
		c, err := loadProfile(name)
		if err != nil {
			fatal(err)
		}
		sp, err := bddsp.SignalProb(c, nil, budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serbench: %s: SP %v (skipped)\n", name, err)
			continue
		}
		an := core.MustNew(c, sp, core.Options{})
		sumAbs, sumTruth, worst := 0.0, 0.0, 0.0
		sites := 0
		skipped := false
		for id := 0; id < c.N(); id += 23 { // ~20-30 stratified sites
			truth, err := bddsp.PSensitized(c, netlist.ID(id), nil, budget)
			if err != nil {
				fmt.Fprintf(os.Stderr, "serbench: %s: site %d %v (circuit skipped)\n", name, id, err)
				skipped = true
				break
			}
			d := math.Abs(an.EPP(netlist.ID(id)).PSensitized - truth)
			sumAbs += d
			sumTruth += truth
			if d > worst {
				worst = d
			}
			sites++
		}
		if skipped || sites == 0 {
			continue
		}
		rel := 0.0
		if sumTruth > 0 {
			rel = 100 * sumAbs / sumTruth
		}
		t.AddRowf(name, sites, sumAbs/float64(sites), worst, rel)
		fmt.Fprintf(os.Stderr, "done %s (%d sites)\n", name, sites)
	}
	t.AddNote("truth = BDD good/faulty miter (no independence assumption, no sampling)")
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func runTable2(ctx context.Context, names []string, cfg table2.Config, csvPath string) {
	rows, err := table2.RunProfiles(ctx, names, cfg, func(r table2.Row) {
		fmt.Fprintf(os.Stderr, "done %-8s SysT=%.3fms SimT=%.1fs %%Dif=%.1f SPT=%.2fs ISP=%.0f ESP=%.0f\n",
			r.Circuit, r.SysTms, r.SimTs, r.DifPct, r.SPTs, r.ISP, r.ESP)
	})
	if err != nil {
		fatal(err)
	}
	t := table2.Render(rows)
	t.AddNote("baseline engine: %v; %d vectors/site; %d sampled sites/circuit",
		cfg.Baseline, cfg.MCVectors, cfg.SampleNodes)
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fatal(err)
		}
		if err := t.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
}

// runSPAblation (experiment A3): how much does the signal probability source
// matter? Compares EPP P_sensitized driven by topological SP vs Monte Carlo
// SP against exhaustive ground truth. The ISCAS profiles exceed the
// exhaustive enumeration limit (16+ primary inputs plus flip-flops), so this
// ablation runs on generated small circuits whose support fits the limit —
// the comparison is about the SP source, not the benchmark identity.
func runSPAblation(ctx context.Context, names []string, cfg table2.Config) {
	if names != nil {
		fmt.Fprintln(os.Stderr, "serbench: -circuits is ignored in sp-ablation mode (exhaustive truth needs small circuits)")
	}
	t := report.NewTable(
		"SP-source ablation: EPP accuracy vs exhaustive truth (small random circuits)",
		"Circuit", "Sites", "MAE(topo SP)", "MAE(MC SP)",
	)
	for seed := uint64(0); seed < 8; seed++ {
		if err := ctx.Err(); err != nil {
			fatal(err)
		}
		c := gen.SmallRandom(cfg.Seed*100 + seed)
		spTopo := sigprob.Topological(c, sigprob.Config{})
		spMC := sigprob.MonteCarlo(c, sigprob.Config{Vectors: cfg.SPVectors, Seed: cfg.Seed})
		aTopo := core.MustNew(c, spTopo, core.Options{})
		aMC := core.MustNew(c, spMC, core.Options{})

		sites := 0
		maeTopo, maeMC := 0.0, 0.0
		for id := 0; id < c.N(); id++ {
			truth, err := exact.PSensitized(c, netlist.ID(id))
			if err != nil {
				fatal(err)
			}
			maeTopo += math.Abs(aTopo.EPP(netlist.ID(id)).PSensitized - truth)
			maeMC += math.Abs(aMC.EPP(netlist.ID(id)).PSensitized - truth)
			sites++
		}
		t.AddRowf(fmt.Sprintf("small-%d", seed), sites, maeTopo/float64(sites), maeMC/float64(sites))
	}
	t.AddNote("MAE = mean |EPP - exact| over all sites; exact = full input enumeration")
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

// loadProfile resolves a generated profile through the shared circuitio
// parse-once path (the same helper sercalc and the serd daemon use):
// repeated loads of one circuit across modes, engines and comparisons all
// share a single finalized instance per invocation.
func loadProfile(name string) (*netlist.Circuit, error) {
	return circuitio.Load(circuitio.Source{Profile: name})
}
