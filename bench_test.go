// Benchmark harness: one benchmark per paper artifact (see DESIGN.md §4).
//
//	E1  BenchmarkFigure1EPP            Fig. 1 worked example
//	E4  BenchmarkEPPAllNodes/*         Table 2 "SysT" kernel
//	E5  BenchmarkRandomSimNode/*       Table 2 "SimT" kernel (naive baseline)
//	E6  BenchmarkSignalProbMC/*        Table 2 "SPT" kernel
//	A1  BenchmarkAblationRules/*       closed-form vs pairwise gate rules
//	A2  BenchmarkMCVectorSweep/*       Monte Carlo cost vs vector budget
//	A3  (accuracy, not time)           covered by serbench -mode sp-ablation
//
// Supporting microbenchmarks: cone extraction, bit-parallel simulation,
// .bench parsing, and the bit-parallel Monte Carlo ablation baseline.
//
// The full Table 2 (timings + accuracy + speedups in the paper's layout) is
// regenerated by `go run ./cmd/serbench`; these benchmarks isolate its
// kernels under the Go benchmark methodology (per-op cost, allocations).
package sersim

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bddsp"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seq"
	"repro/internal/sigprob"
	"repro/internal/simulate"
)

// benchCircuits spans three orders of magnitude of circuit size up to the
// full-size s38417 data point (the headline row of the Table 2
// reproduction). Use -benchtime=1x for a quick smoke pass; the all-nodes
// kernels on s38417 are seconds-per-op.
var benchCircuits = []string{"s953", "s1196", "s9234", "s15850", "s38417"}

var (
	circuitCache   = map[string]*netlist.Circuit{}
	circuitCacheMu sync.Mutex
)

func circuitFor(b *testing.B, name string) *netlist.Circuit {
	b.Helper()
	circuitCacheMu.Lock()
	defer circuitCacheMu.Unlock()
	if c, ok := circuitCache[name]; ok {
		return c
	}
	c, err := gen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	circuitCache[name] = c
	return c
}

func spFor(b *testing.B, c *netlist.Circuit) []float64 {
	b.Helper()
	return sigprob.Topological(c, sigprob.Config{})
}

// BenchmarkFigure1EPP (E1): the paper's worked example, one EPP query.
func BenchmarkFigure1EPP(b *testing.B) {
	c, err := bench.ParseString(`
INPUT(A)
INPUT(B)
INPUT(C)
INPUT(F)
OUTPUT(H)
E = NOT(A)
G = AND(E, F)
D = AND(A, B)
H = OR(C, D, G)
`)
	if err != nil {
		b.Fatal(err)
	}
	prob := make([]float64, c.N())
	prob[c.ByName("A")] = 0.5
	prob[c.ByName("B")] = 0.2
	prob[c.ByName("C")] = 0.3
	prob[c.ByName("F")] = 0.7
	sp := sigprob.Topological(c, sigprob.Config{SourceProb: prob})
	an := core.MustNew(c, sp, core.Options{})
	site := c.ByName("A")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := an.EPP(site)
		if res.PSensitized < 0.433 || res.PSensitized > 0.435 {
			b.Fatalf("wrong answer: %v", res.PSensitized)
		}
	}
}

// BenchmarkEPPAllNodes (E4, Table 2 SysT): the EPP analysis over every node
// of each benchmark circuit, one worker, through the epp-batch engine that
// table2 times. ns/op here ÷ 1e6 is the SysT(ms) column.
func BenchmarkEPPAllNodes(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			c := circuitFor(b, name)
			b.ReportAllocs()
			benchEngine(b, "epp-batch", &engine.Request{Circuit: c, SP: spFor(b, c), Workers: 1})
			b.ReportMetric(float64(c.N()), "nodes")
		})
	}
}

// BenchmarkEPPInverters: BenchmarkEPPAllNodes/s9234 with every NAND and NOR
// rewritten as an AND or OR followed by a NOT. The generated profiles have
// no BUF or NOT gates at all, so this is the workload that times the
// epp-batch kernel's unary path.
func BenchmarkEPPInverters(b *testing.B) {
	c := splitInverters(b, circuitFor(b, "s9234"))
	b.ReportAllocs()
	benchEngine(b, "epp-batch", &engine.Request{Circuit: c, SP: spFor(b, c), Workers: 1})
	b.ReportMetric(float64(c.N()), "nodes")
}

// splitInverters returns c with each NAND/NOR gate g replaced by an AND/OR
// gate g_pre driving a NOT named g, so g keeps its fanouts and outputs.
func splitInverters(b *testing.B, c *netlist.Circuit) *netlist.Circuit {
	b.Helper()
	// Fanins may point forward (flip-flop feedback), so map every old ID to
	// its new one before adding any node.
	newID := make([]netlist.ID, c.N())
	next := netlist.ID(0)
	for id := range c.Nodes {
		if k := c.Nodes[id].Kind; k == logic.Nand || k == logic.Nor {
			next++ // the AND/OR half comes first
		}
		newID[id] = next
		next++
	}
	nb := netlist.NewBuilder(c.Name + "-inverters")
	for _, n := range c.Nodes {
		fanin := make([]netlist.ID, len(n.Fanin))
		for i, f := range n.Fanin {
			fanin[i] = newID[f]
		}
		switch n.Kind {
		case logic.Input:
			nb.Input(n.Name)
		case logic.Const0, logic.Const1:
			nb.Const(n.Name, n.Kind == logic.Const1)
		case logic.DFF:
			nb.DFF(n.Name, fanin[0])
		case logic.Nand:
			nb.Not(n.Name, nb.And(n.Name+"_pre", fanin...))
		case logic.Nor:
			nb.Not(n.Name, nb.Or(n.Name+"_pre", fanin...))
		default:
			nb.Gate(n.Kind, n.Name, fanin...)
		}
	}
	for _, po := range c.POs {
		nb.MarkOutput(newID[po])
	}
	out, err := nb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// benchEngine times b.N all-sites sweeps of req by the named engine.
func benchEngine(b *testing.B, name string, req *engine.Request) {
	b.Helper()
	eng, err := engine.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, req.Circuit.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.PSensitizedAll(context.Background(), req, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomSimNode (E5, Table 2 SimT): the naive random-simulation
// baseline for a single mid-circuit error site at the paper-era budget of
// 10000 vectors. SimT(s) ≈ ns/op × #nodes / 1e9.
func BenchmarkRandomSimNode(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			c := circuitFor(b, name)
			naive := simulate.NewNaive(c, simulate.MCOptions{Vectors: 10000, Seed: 1})
			site := netlist.ID(c.N() / 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				naive.EPP(site)
			}
		})
	}
}

// BenchmarkBitParallelSimNode (ablation on E5): the strengthened Monte Carlo
// baseline — 64-way bit-parallel, cone-limited re-simulation — on the same
// workload as BenchmarkRandomSimNode.
func BenchmarkBitParallelSimNode(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			c := circuitFor(b, name)
			mc := simulate.NewMonteCarlo(c, simulate.MCOptions{Vectors: 10000, Seed: 1})
			site := netlist.ID(c.N() / 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mc.EPP(site)
			}
		})
	}
}

// BenchmarkSignalProbMC (E6, Table 2 SPT): Monte Carlo signal probability at
// the design-flow budget of 100000 vectors.
func BenchmarkSignalProbMC(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			c := circuitFor(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sigprob.MonteCarlo(c, sigprob.Config{Vectors: 100000, Seed: 1})
			}
		})
	}
}

// BenchmarkSignalProbTopo: the Parker–McCluskey sweep the EPP method can use
// instead when simulation-grade SP is unavailable (contrast with SPT).
func BenchmarkSignalProbTopo(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			c := circuitFor(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sigprob.Topological(c, sigprob.Config{})
			}
		})
	}
}

// BenchmarkAblationRules (A1): closed-form Table 1 rules vs the generic
// pairwise 4×4 fold, full-circuit sweep on s1196.
func BenchmarkAblationRules(b *testing.B) {
	c := circuitFor(b, "s1196")
	sp := spFor(b, c)
	for _, rs := range []core.RuleSet{core.RulesClosedForm, core.RulesPairwise} {
		b.Run(rs.String(), func(b *testing.B) {
			benchEngine(b, "epp-batch", &engine.Request{Circuit: c, SP: sp, Workers: 1, Rules: rs})
		})
	}
}

// BenchmarkMCVectorSweep (A2): Monte Carlo cost growth with the vector
// budget (accuracy per budget is reported by examples/accuracy).
func BenchmarkMCVectorSweep(b *testing.B) {
	c := circuitFor(b, "s953")
	site := netlist.ID(c.N() / 2)
	for _, vectors := range []int{64, 256, 1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("%dvec", vectors), func(b *testing.B) {
			mc := simulate.NewMonteCarlo(c, simulate.MCOptions{Vectors: vectors, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mc.EPP(site)
			}
		})
	}
}

// BenchmarkConeExtraction: the path-construction step (paper §2 step 1-2)
// in isolation, averaged over all sites.
func BenchmarkConeExtraction(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			c := circuitFor(b, name)
			w := graph.NewWalker(c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.ForwardCone(netlist.ID(i % c.N()))
			}
		})
	}
}

// BenchmarkSimulatorRun: one 64-pattern good-machine evaluation of the whole
// circuit (the inner loop of every Monte Carlo component).
func BenchmarkSimulatorRun(b *testing.B) {
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			c := circuitFor(b, name)
			eng := simulate.NewEngine(c)
			src := simulate.NewVectorSource(1, nil)
			src.Fill(eng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run()
			}
			perGate := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(c.N())
			b.ReportMetric(perGate, "ns/gate-word")
		})
	}
}

// BenchmarkBDDExactPSensitized: the symbolic ground-truth computation (BDD
// good/faulty miter) for one mid-circuit site on s953 — the cost of
// exactness that both EPP and Monte Carlo avoid paying.
func BenchmarkBDDExactPSensitized(b *testing.B) {
	c := circuitFor(b, "s953")
	site := netlist.ID(c.N() / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bddsp.PSensitized(c, site, nil, 1<<23); err != nil {
			b.Skip(err)
		}
	}
}

// BenchmarkBDDExactSignalProb: exact all-nodes signal probability on s953.
func BenchmarkBDDExactSignalProb(b *testing.B) {
	c := circuitFor(b, "s953")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bddsp.SignalProb(c, nil, 1<<23); err != nil {
			b.Skip(err)
		}
	}
}

// BenchmarkParseBench: .bench parsing throughput on a generated netlist.
func BenchmarkParseBench(b *testing.B) {
	c := circuitFor(b, "s9234")
	var buf bytes.Buffer
	if err := bench.Write(&buf, c); err != nil {
		b.Fatal(err)
	}
	src := buf.String()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEPPScaling: multi-core scaling of the epp-batch sweep on s9234
// across explicit worker counts (ROADMAP open item: the 1-vCPU benchmark
// box could never measure it). The workers=1 row is the serial baseline;
// on an N-core machine the workers=max row should approach N× — batches
// are claimed from a lock-free atomic cursor and results are
// worker-count-invariant, so any shortfall is memory bandwidth or cursor
// contention, not synchronization.
func BenchmarkEPPScaling(b *testing.B) {
	c := circuitFor(b, "s9234")
	sp := spFor(b, c)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchEngine(b, "epp-batch", &engine.Request{Circuit: c, SP: sp, Workers: workers})
			b.ReportMetric(float64(workers), "workers")
		})
	}
	b.Run("workers=max", func(b *testing.B) {
		benchEngine(b, "epp-batch", &engine.Request{Circuit: c, SP: sp})
	})
}

// BenchmarkMultiCycleEPP (extension): the sequential detection-probability
// analysis at an 8-frame budget, one site per op (FF profiles amortize).
func BenchmarkMultiCycleEPP(b *testing.B) {
	c := circuitFor(b, "s1423") // FF-heavy profile
	an, err := seq.New(c, spFor(b, c))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.PDetect(netlist.ID(i%c.N()), 8)
	}
}

// BenchmarkSequentialSim (extension baseline): the two-machine multi-cycle
// fault-injection simulator at the same 8-frame budget.
func BenchmarkSequentialSim(b *testing.B) {
	c := circuitFor(b, "s1423")
	sim := simulate.NewSequential(c, simulate.SeqOptions{Frames: 8, Trials: 10000, Seed: 1})
	site := netlist.ID(c.N() / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.PDetect(site)
	}
}

// BenchmarkMCAllNodes: the all-nodes Monte Carlo sweep, per-site estimator
// vs the monte-carlo engine's shared-good-sim batched kernel
// (simulate.MCBatch), at a reduced 128-vector budget so the quadratic
// per-site variant stays benchable on s38417. The batched kernel performs
// exactly one good simulation per 64-vector word regardless of site count
// (the goodsims/word metric; the per-site estimator pays one per site per
// word — the sites× metric), which is where the wall-clock win comes from.
// At 128 vectors the batched sweep is one block of two words, run on one
// worker; the visits/site metric is the gates its event-driven per-site
// sweeps evaluated (engine.Stats.SweptNodes per site).
func BenchmarkMCAllNodes(b *testing.B) {
	const vectors = 128 // 2 words
	for _, name := range []string{"s9234", "s38417"} {
		c := circuitFor(b, name)
		b.Run(name+"/per-site", func(b *testing.B) {
			mc := simulate.NewMonteCarlo(c, simulate.MCOptions{Vectors: vectors, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for id := 0; id < c.N(); id++ {
					mc.EPP(netlist.ID(id))
				}
			}
			b.ReportMetric(float64(c.N()), "goodsims/word")
		})
		b.Run(name+"/batched", func(b *testing.B) {
			st := benchMC(b, c, vectors, 1)
			b.ReportMetric(st.SweptNodesPerSite(), "visits/site")
		})
	}
}

// benchMC times b.N all-sites monte-carlo engine sweeps of c on one worker
// at the given frame budget, requires exactly one good simulation per word
// and frame, reports the goodsims/word metric and returns the counters.
func benchMC(b *testing.B, c *netlist.Circuit, vectors, frames int) *engine.Stats {
	b.Helper()
	st := &engine.Stats{}
	benchEngine(b, "monte-carlo", &engine.Request{Circuit: c, Frames: frames, Vectors: vectors, Seed: 1, Workers: 1, Stats: st})
	b.StopTimer()
	words := int64(b.N * ((vectors + 63) / 64))
	if st.Words.Load() != words || st.GoodSims.Load() != words*int64(frames) {
		b.Fatalf("good sims = %d over %d words at %d frames, want exactly one per (word, frame)",
			st.GoodSims.Load(), st.Words.Load(), frames)
	}
	b.ReportMetric(st.GoodSimsPerWord(), "goodsims/word")
	return st
}

// BenchmarkNewMCBatch: single-cycle Monte Carlo construction on its own —
// topological ranks, the observation mask, the draw order and the
// observable sites, all linear in the circuit (the sweep workers allocate
// their block state when a sweep starts). The monte-carlo engine builds
// one per call, so BenchmarkMCAllNodes' batched rows include it; this
// times it alone.
func BenchmarkNewMCBatch(b *testing.B) {
	for _, name := range []string{"s9234", "s38417"} {
		c := circuitFor(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simulate.NewMCBatch(c, simulate.MCOptions{Vectors: 256, Seed: 1})
			}
		})
	}
}

// BenchmarkMCSeqAllNodes: the all-nodes multi-cycle Monte Carlo sweep of
// the monte-carlo engine (simulate.MCBatch in multi-cycle mode) on s9234
// at frame budgets 1/2/4, 128 vectors. Cost grows with frames — each
// 64-vector word pays exactly one good simulation per frame (the
// goodsims/word metric equals the frame count), and each site's sweep runs
// on through a later frame only while some flip-flop carries its
// divergence; the per-site Sequential baseline would pay sites × frames
// good sims per word. frames=1 isolates the multi-cycle mode's overhead
// against BenchmarkMCAllNodes' batched row (PO-only detection, so the
// numbers are close but not identical workloads).
func BenchmarkMCSeqAllNodes(b *testing.B) {
	const vectors = 128 // 2 words
	c := circuitFor(b, "s9234")
	for _, frames := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			benchMC(b, c, vectors, frames)
		})
	}
}

// BenchmarkBatchLocality: the batched EPP kernel under consecutive-ID
// packing vs the cone-locality schedule (what epp-batch uses), width 64 on
// s9234. The swept/site metric is the per-batch union-cone size amortized
// over lanes — the quantity the scheduler minimizes; results are
// bit-identical either way (packing invariance).
func BenchmarkBatchLocality(b *testing.B) {
	c := circuitFor(b, "s9234")
	sp := spFor(b, c)
	an := core.MustNew(c, sp, core.Options{})
	packs := []struct {
		name  string
		order []netlist.ID
	}{
		{"by-id", nil},
		{"locality", an.Schedule().Order},
	}
	for _, p := range packs {
		b.Run(p.name, func(b *testing.B) {
			eng := core.NewBatch(core.MustNew(c, sp, core.Options{}), core.DefaultBatchWidth)
			out := make([]float64, core.DefaultBatchWidth)
			sites := make([]netlist.ID, 0, core.DefaultBatchWidth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < c.N(); lo += core.DefaultBatchWidth {
					hi := lo + core.DefaultBatchWidth
					if hi > c.N() {
						hi = c.N()
					}
					batch := p.order
					if batch != nil {
						batch = p.order[lo:hi]
					} else {
						sites = sites[:0]
						for id := lo; id < hi; id++ {
							sites = append(sites, netlist.ID(id))
						}
						batch = sites
					}
					eng.PSensitizedBatch(batch, out[:hi-lo])
				}
			}
			b.StopTimer()
			swept, nsites := eng.Counters()
			b.ReportMetric(float64(swept)/float64(nsites), "swept/site")
		})
	}
}
