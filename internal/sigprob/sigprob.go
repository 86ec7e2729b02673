// Package sigprob computes signal probabilities — the probability of each
// net holding logic 1 — which the EPP method consumes for off-path signals
// (paper §2, citing Parker & McCluskey 1975).
//
// Two computation methods are provided, mirroring the paper's cost analysis
// (the "SPT" column of Table 2 is the signal-probability computation time):
//
//   - Topological: a single Parker–McCluskey sweep under the signal
//     independence assumption. Linear time, exact on fanout-free circuits.
//   - Monte Carlo: bit-parallel random simulation, asymptotically exact on
//     any circuit and the expensive "already used in other design-flow
//     steps" method the paper leverages.
//
// Both accept per-source bias (probability of 1 at PIs and FF outputs).
package sigprob

import (
	"fmt"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/simulate"
)

// Config configures a signal probability computation.
type Config struct {
	// SourceProb gives the probability of logic 1 for each source node,
	// indexed by node ID (non-source entries ignored). Nil means 0.5 for
	// every primary input and flip-flop.
	SourceProb []float64
	// Vectors is the number of random vectors for the Monte Carlo method
	// (rounded up to a multiple of 64). Default 100000 — deliberately
	// generous, as in the design flows the paper leverages.
	Vectors int
	// Seed seeds the Monte Carlo method.
	Seed uint64
}

func (c *Config) setDefaults() {
	if c.Vectors <= 0 {
		c.Vectors = 100000
	}
}

func (c *Config) sourceProb(id netlist.ID) float64 {
	if c.SourceProb == nil {
		return 0.5
	}
	return c.SourceProb[id]
}

// Topological computes signal probabilities with one Parker–McCluskey sweep
// in combinational topological order, treating gate inputs as independent.
// The returned slice is indexed by node ID.
func Topological(c *netlist.Circuit, cfg Config) []float64 {
	cfg.setDefaults()
	sp := make([]float64, c.N())
	kinds := c.Kinds()
	fiIdx, fiArr := c.FaninCSR()
	for _, id := range c.Topo() {
		switch k := kinds[id]; k {
		case logic.Input, logic.DFF:
			sp[id] = cfg.sourceProb(id)
		case logic.Const0:
			sp[id] = 0
		case logic.Const1:
			sp[id] = 1
		default:
			sp[id] = gateSP(k, fiArr[fiIdx[id]:fiIdx[id+1]], sp)
		}
	}
	return sp
}

// gateSP evaluates one gate's output probability from fanin probabilities
// under the independence assumption.
func gateSP(k logic.Kind, fanin []netlist.ID, sp []float64) float64 {
	switch k {
	case logic.Buf:
		return sp[fanin[0]]
	case logic.Not:
		return 1 - sp[fanin[0]]
	case logic.And, logic.Nand:
		p := 1.0
		for _, f := range fanin {
			p *= sp[f]
		}
		if k == logic.Nand {
			return 1 - p
		}
		return p
	case logic.Or, logic.Nor:
		q := 1.0
		for _, f := range fanin {
			q *= 1 - sp[f]
		}
		if k == logic.Nor {
			return q
		}
		return 1 - q
	case logic.Xor, logic.Xnor:
		// Fold: P(x⊕y=1) = p + q − 2pq for independent x, y.
		p := sp[fanin[0]]
		for _, f := range fanin[1:] {
			q := sp[f]
			p = p + q - float64(2*p*q) // rounded: no fused multiply-add
		}
		if k == logic.Xnor {
			return 1 - p
		}
		return p
	}
	panic(fmt.Sprintf("sigprob: gateSP on kind %v", k))
}

// MonteCarlo estimates signal probabilities by bit-parallel random
// simulation. The returned slice is indexed by node ID. This is the accurate
// but slow method; its cost is what the paper reports as SPT.
func MonteCarlo(c *netlist.Circuit, cfg Config) []float64 {
	cfg.setDefaults()
	eng := simulate.NewEngine(c)
	src := simulate.NewVectorSource(cfg.Seed, cfg.SourceProb)
	words := (cfg.Vectors + 63) / 64
	ones := make([]int64, c.N())
	for w := 0; w < words; w++ {
		src.Fill(eng)
		eng.Run()
		for id := 0; id < c.N(); id++ {
			ones[id] += int64(bits.OnesCount64(eng.Value(netlist.ID(id))))
		}
	}
	total := float64(words * 64)
	sp := make([]float64, c.N())
	for id := range sp {
		sp[id] = float64(ones[id]) / total
	}
	return sp
}

// MaxAbsDiff returns the largest absolute difference between two probability
// vectors, a convergence/accuracy diagnostic used in tests and reports.
func MaxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
