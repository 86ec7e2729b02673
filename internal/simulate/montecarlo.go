// Per-site Monte Carlo estimator of P_sensitized — the paper-era baseline
// shape; see MCBatch for the production shared-good-sim form.

package simulate

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/netlist"
)

// MCOptions configure the Monte Carlo error-propagation estimator.
type MCOptions struct {
	// Vectors is the number of random input vectors to apply (rounded up to
	// a multiple of 64). Default 10000.
	Vectors int
	// Seed makes runs reproducible. Two estimators with equal seeds apply
	// identical vector sequences.
	Seed uint64
	// SourceProb optionally biases each source's probability of logic 1
	// (indexed by node ID); nil means 0.5 everywhere.
	SourceProb []float64
	// SharedVectors selects the shared-stream vector regime: the vectors of
	// 64-pattern word w are drawn from a stream seeded by (Seed, w), so
	// every error site sees the same vector sequence. This is the regime
	// MCBatch is built on — the good simulation of a word can be shared by
	// all sites only if the sites share the word's vectors — and setting it
	// on a per-site MonteCarlo reproduces MCBatch's per-site results
	// bit-exactly (see TestMCBatchMatchesPerSite). Each site's estimate is
	// unchanged in distribution either way; what changes is the joint
	// behavior (estimates of different sites become correlated through the
	// shared vectors) and the per-site detection counts for a given Seed.
	//
	// Default false: each site draws its own stream seeded by (Seed, site),
	// the historical regime, kept so existing per-site results stay
	// reproducible (both regimes are pinned by TestMonteCarloSeedGolden).
	SharedVectors bool
}

func (o *MCOptions) setDefaults() {
	if o.Vectors <= 0 {
		o.Vectors = 10000
	}
}

// Words returns the number of 64-vector words a sweep with these options
// applies — the unit count word-major checkpoints are tracked in.
func (o MCOptions) Words() int {
	o.setDefaults()
	return (o.Vectors + 63) / 64
}

// MCResult is the Monte Carlo estimate of P_sensitized for one error site.
type MCResult struct {
	Site        netlist.ID
	PSensitized float64 // detected / applied
	StdErr      float64 // binomial standard error of the estimate
	Vectors     int     // vectors actually applied (multiple of 64)
	Detected    int     // vectors on which an observation point flipped
}

// String renders the estimate with its standard error.
func (r MCResult) String() string {
	return fmt.Sprintf("site %d: P=%0.4f ± %0.4f (%d/%d vectors)",
		r.Site, r.PSensitized, r.StdErr, r.Detected, r.Vectors)
}

// MonteCarlo estimates P_sensitized by random-vector fault injection: the
// prior-art method the paper compares against, kept in its per-site shape
// (one vector stream and one good simulation per site per word — the cost
// model Table 2's SimT column reports). For each 64-pattern word it runs a
// good simulation, injects a flip at the error site, re-simulates the fault
// cone only, and counts patterns where any reachable observation point
// differs. Production all-sites sweeps should use MCBatch, which shares the
// good simulations across sites; with MCOptions.SharedVectors set this
// estimator reproduces MCBatch's per-site results bit-exactly, which is how
// the two are conformance-tested against each other.
type MonteCarlo struct {
	eng    *Engine
	walker *graph.Walker
	opt    MCOptions
}

// NewMonteCarlo returns an estimator for circuit c.
func NewMonteCarlo(c *netlist.Circuit, opt MCOptions) *MonteCarlo {
	opt.setDefaults()
	return &MonteCarlo{
		eng:    NewEngine(c),
		walker: graph.NewWalker(c),
		opt:    opt,
	}
}

// EPP estimates the error propagation probability from the given error site
// to all reachable observation points.
func (m *MonteCarlo) EPP(site netlist.ID) MCResult {
	cone := m.walker.ForwardCone(site)
	words := (m.opt.Vectors + 63) / 64
	// Only the vector source differs between the regimes: per-site keeps one
	// decorrelated stream seeded by (Seed, site); shared re-seeds per word
	// by (Seed, w) — identical vectors for every site, the MCBatch contract.
	// One loop body, so the documented bit-exact MCBatch equivalence cannot
	// desynchronize.
	var perSiteSrc *VectorSource
	if !m.opt.SharedVectors {
		perSiteSrc = NewVectorSource(m.opt.Seed^(uint64(site)*0xbf58476d1ce4e5b9+1), m.opt.SourceProb)
	}
	detected := 0
	for w := 0; w < words; w++ {
		src := perSiteSrc
		if src == nil {
			src = NewVectorSource(wordSeed(m.opt.Seed, int64(w)), m.opt.SourceProb)
		}
		src.Fill(m.eng)
		m.eng.Run()
		detected += bits.OnesCount64(m.eng.FaultySim(&cone))
	}
	n := words * 64
	p := float64(detected) / float64(n)
	return MCResult{
		Site:        site,
		PSensitized: p,
		StdErr:      math.Sqrt(p * (1 - p) / float64(n)),
		Vectors:     n,
		Detected:    detected,
	}
}
