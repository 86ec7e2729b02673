package simulate_test

// The analytical cross-check lives in an external test package: it needs
// sigprob for the seq analyzer's signal probabilities and runs the kernel
// through the monte-carlo engine, and both import simulate.

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/seq"
	"repro/internal/sigprob"
)

// TestMCSeqBatchVsAnalyticalSeq cross-checks the frame-unrolled Monte Carlo
// kernel, run by the monte-carlo engine, against the analytical
// multi-cycle extension (package seq): mean |diff| over all sites and
// several frame budgets must stay within the same bound the analytical
// model is held to against Sequential — the two multi-cycle paths must
// tell one story.
func TestMCSeqBatchVsAnalyticalSeq(t *testing.T) {
	mc, err := engine.Lookup("monte-carlo")
	if err != nil {
		t.Fatal(err)
	}
	sumAbs, n := 0.0, 0
	for seed := uint64(0); seed < 3; seed++ {
		c := gen.SmallRandomSequential(seed + 80)
		a, err := seq.New(c, sigprob.Topological(c, sigprob.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		for _, frames := range []int{2, 4} {
			req := &engine.Request{Circuit: c, Frames: frames, Vectors: 1 << 12, Seed: seed + 9}
			got := make([]float64, c.N())
			if err := mc.PSensitizedAll(context.Background(), req, got); err != nil {
				t.Fatal(err)
			}
			for id := 0; id < c.N(); id++ {
				sumAbs += math.Abs(got[id] - a.PDetect(netlist.ID(id), frames))
				n++
			}
		}
	}
	mean := sumAbs / float64(n)
	t.Logf("mean |MCSeqBatch - seq analytical| over %d (site, frames) pairs: %v", n, mean)
	if mean > 0.08 {
		t.Errorf("mean difference %v exceeds 0.08", mean)
	}
}
