package eco_test

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/eco"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/harden"
	"repro/internal/netlist"
	"repro/internal/ser"
)

// ecoRun estimates c with the cache attached (nil: a cold estimate) and
// returns the sweep counters.
func ecoRun(tb testing.TB, c *netlist.Circuit, cache *eco.Cache) (*ser.Report, *engine.Stats) {
	tb.Helper()
	st := &engine.Stats{}
	rep, err := ser.Run(context.Background(), c, ser.Config{ECO: cache, Stats: st})
	if err != nil {
		tb.Fatal(err)
	}
	return rep, st
}

// firstGates returns the lowest-ID combinational gates of c.
func firstGates(c *netlist.Circuit, k int) []netlist.ID {
	var gates []netlist.ID
	for i := range c.Nodes {
		if c.Nodes[i].Kind.IsGate() {
			gates = append(gates, netlist.ID(i))
			if len(gates) == k {
				break
			}
		}
	}
	return gates
}

// cheapestGates predicts, with the differ alone (no engine run), the k
// single-gate TMR edits with the smallest re-estimate footprint, scanning
// every stride-th gate. This is the differ doing its production job: a TMR
// invalidates the backward cone of the protected gate's fanins (its
// replicas are new consumers of them) plus the forward region its voter's
// shifted signal probability cascades through, so the footprint varies from
// a few sites to the whole circuit depending on where the gate sits —
// an ECO flow ranks candidates by predicted cost exactly like this.
func cheapestGates(tb testing.TB, c *netlist.Circuit, stride, k int) []netlist.ID {
	tb.Helper()
	type cand struct {
		g    netlist.ID
		cost int
	}
	var cands []cand
	seen := 0
	for i := range c.Nodes {
		if !c.Nodes[i].Kind.IsGate() {
			continue
		}
		seen++
		if seen%stride != 0 {
			continue
		}
		g := netlist.ID(i)
		ed, err := harden.TMR(c, []netlist.ID{g})
		if err != nil {
			tb.Fatal(err)
		}
		cands = append(cands, cand{g, len(eco.AnalyticChangedSites(c, ed, 1))})
	}
	if len(cands) < k {
		tb.Fatalf("cheapestGates: only %d candidates at stride %d, want %d", len(cands), stride, k)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].g < cands[j].g
	})
	out := make([]netlist.ID, k)
	for i := range out {
		out[i] = cands[i].g
	}
	return out
}

// TestECOIncrementalSweepRatio is the PR's acceptance bound: on s9234, a
// single-gate TMR re-estimate sweeps fewer than 25% of the sites — the
// rest restore from the cone-hash cache — and visits fewer than 25% of the
// union-cone nodes a cold estimate of the same edited circuit visits, so
// the restored sites must not fragment the batches of the swept ones. The
// edit is the differ-predicted cheapest candidate (see cheapestGates); the
// engine counters are the proof that the engine actually skipped what the
// differ promised, and the differential harness separately proves the
// restored values are exact.
func TestECOIncrementalSweepRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("s9234 acceptance bound is not a -short test")
	}
	c, err := gen.ByName("s9234")
	if err != nil {
		t.Fatal(err)
	}
	cache := eco.NewCache()
	ecoRun(t, c, cache) // prime: full sweep of the base circuit

	edited, err := harden.TMR(c, cheapestGates(t, c, 13, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, st := ecoRun(t, edited, cache)
	n := int64(edited.N())
	swept, hits := st.Sites.Load(), st.MemoHits.Load()
	if swept+hits != n {
		t.Fatalf("Sites(%d) + MemoHits(%d) = %d, want %d", swept, hits, swept+hits, n)
	}
	if ratio := float64(swept) / float64(n); ratio >= 0.25 {
		t.Fatalf("single-site TMR re-estimate swept %d of %d sites (%.1f%%), want < 25%%",
			swept, n, 100*ratio)
	} else {
		t.Logf("s9234 re-estimate: swept %d of %d sites (%.2f%%), %d restored", swept, n, 100*ratio, hits)
	}
	_, cold := ecoRun(t, edited, nil)
	nodes, coldNodes := st.SweptNodes.Load(), cold.SweptNodes.Load()
	if ratio := float64(nodes) / float64(coldNodes); ratio >= 0.25 {
		t.Fatalf("single-site TMR re-estimate swept %d union-cone nodes, %.1f%% of a cold estimate's %d, want < 25%%",
			nodes, 100*ratio, coldNodes)
	} else {
		t.Logf("s9234 re-estimate: swept %d of a cold estimate's %d union-cone nodes (%.2f%%)", nodes, coldNodes, 100*ratio)
	}
}

// TestECOBenchArtifact emits the touched-cones-per-edit measurement as JSON
// when ECO_BENCH_JSON names an output path (the CI eco job uploads it), so
// the incremental-sweep ratio is tracked across commits, not just bounded.
func TestECOBenchArtifact(t *testing.T) {
	path := os.Getenv("ECO_BENCH_JSON")
	if path == "" {
		t.Skip("set ECO_BENCH_JSON=<path> to emit the artifact")
	}
	c, err := gen.ByName("s9234")
	if err != nil {
		t.Fatal(err)
	}
	type editRec struct {
		Gate           string  `json:"gate"`
		Sites          int64   `json:"sites"`
		SweptSites     int64   `json:"swept_sites"`
		MemoHits       int64   `json:"memo_hits"`
		Ratio          float64 `json:"swept_ratio"`
		SweptNodes     int64   `json:"swept_nodes"`
		ColdSweptNodes int64   `json:"cold_swept_nodes"`
	}
	out := struct {
		Circuit string    `json:"circuit"`
		Nodes   int       `json:"nodes"`
		Engine  string    `json:"engine"`
		Edits   []editRec `json:"edits"`
	}{Circuit: "s9234", Nodes: c.N(), Engine: "epp-batch"}

	cache := eco.NewCache()
	ecoRun(t, c, cache)
	cur := c
	for _, g := range cheapestGates(t, c, 13, 3) {
		cur, err = harden.TMR(cur, []netlist.ID{g})
		if err != nil {
			t.Fatal(err)
		}
		_, st := ecoRun(t, cur, cache)
		_, cold := ecoRun(t, cur, nil)
		n := int64(cur.N())
		swept := st.Sites.Load()
		out.Edits = append(out.Edits, editRec{
			Gate:           c.NameOf(g),
			Sites:          n,
			SweptSites:     swept,
			MemoHits:       st.MemoHits.Load(),
			Ratio:          float64(swept) / float64(n),
			SweptNodes:     st.SweptNodes.Load(),
			ColdSweptNodes: cold.SweptNodes.Load(),
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// BenchmarkECOReestimate measures a one-gate-TMR re-estimate against the
// cache primed with the base circuit — each iteration protects a different
// gate, so every measurement is a genuine partial sweep (the new cone misses,
// the rest restores). Compare with BenchmarkColdEstimate for the saving.
func BenchmarkECOReestimate(b *testing.B) {
	c, err := gen.ByName("s9234")
	if err != nil {
		b.Fatal(err)
	}
	cache := eco.NewCache()
	ecoRun(b, c, cache)
	gates := firstGates(c, c.NumGates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edited, err := harden.TMR(c, []netlist.ID{gates[i%len(gates)]})
		if err != nil {
			b.Fatal(err)
		}
		ecoRun(b, edited, cache)
	}
}

// BenchmarkColdEstimate is the uncached baseline for BenchmarkECOReestimate:
// the same one-gate-TMR estimate paying the full sweep.
func BenchmarkColdEstimate(b *testing.B) {
	c, err := gen.ByName("s9234")
	if err != nil {
		b.Fatal(err)
	}
	gates := firstGates(c, c.NumGates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edited, err := harden.TMR(c, []netlist.ID{gates[i%len(gates)]})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ser.Run(context.Background(), edited, ser.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
