package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sigprob"
)

// FuzzEPPBatch differentially fuzzes the batched EPP kernel against the
// scalar specification. The circuit is a small (5–80 gates) or large
// (200–600 gates) random one (gen.FuzzParams), optionally with one
// edge-case gadget grafted on (gen.FuzzCircuit); a fuzzed byte list picks
// the swept sites and their order (empty: every site, ascending), swept at
// a fuzzed width (1–64) under a fuzzed rule set. Every EPPBatch Result
// must equal the scalar Analyzer.EPP's bitwise — P_sensitized, cone size
// and each output's state, in order — and every on-path lane's live bit
// must match the scalar state. Then the epp-batch and epp-scalar engines
// must agree bitwise on every site at a fuzzed frame count (1–3) and
// worker count (1 or 3), and epp-batch swept as two SiteLo/SiteHi shards
// split at a site derived from the seed, merged, must equal its unsplit
// sweep bitwise.
func FuzzEPPBatch(f *testing.F) {
	// One seed per gadget under the closed-form rules: XOR(s, s), constant
	// masking, and the AND/OR family at fanin 1, 2, 3 and 5; then plain
	// circuits under the pairwise and no-polarity rules, one sweeping a
	// picked site list.
	for g := uint8(1); g < 7; g++ {
		f.Add(uint64(g)*0x9e3779b97f4a7c15+1, 20+10*g, g, g, uint8(0x27+0x31*g), g, []byte{}, 63-9*g, uint8(0), g, g)
	}
	f.Add(uint64(1), uint8(30), uint8(1), uint8(3), uint8(0x27), uint8(0), []byte{}, uint8(63), uint8(1), uint8(0), uint8(1))
	f.Add(uint64(5), uint8(60), uint8(3), uint8(6), uint8(0xf3), uint8(0), []byte{90, 3, 17, 3, 250, 41}, uint8(2), uint8(2), uint8(0), uint8(0))
	// Constant masking under the pairwise rules: a gate without the
	// off-path fixed point whose lane is quiet in every fanin must still
	// be evaluated.
	f.Add(uint64(13064056694810536063), uint8(0x8a), uint8(1), uint8(1), uint8(0x89), uint8(2), []byte{}, uint8(7), uint8(1), uint8(0x1a), uint8(0))
	// Large circuits: every site across several batches, then a picked
	// site list, then the flip-flop whose D input only it reaches.
	f.Add(uint64(7), uint8(0xc0), uint8(1), uint8(4), uint8(0x2d), uint8(0), []byte{}, uint8(63), uint8(0), uint8(1), uint8(1))
	f.Add(uint64(11), uint8(0xff), uint8(2), uint8(2), uint8(0x3e), uint8(3), []byte{200, 7, 91, 7, 255, 130}, uint8(40), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(0x9e3779b97f4a7c20), uint8(0xdc), uint8(0), uint8(3), uint8(0x38), uint8(8), []byte{}, uint8(31), uint8(0), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, size, fanin, ffs, mix, gadget uint8, pick []byte, width, rules, frames, workers uint8) {
		c, err := gen.FuzzCircuit(gen.FuzzParams(seed, size, fanin, ffs, mix), gadget, seed)
		if err != nil {
			t.Skip(err)
		}
		n := c.N()
		sp := sigprob.Topological(c, sigprob.Config{})
		rs := core.RuleSet(int(rules) % 3)
		w := 1 + int(width)%64
		var sites []netlist.ID
		seen := make([]bool, n)
		for _, b := range pick {
			if id := int(b) % n; !seen[id] {
				seen[id] = true
				sites = append(sites, netlist.ID(id))
			}
		}
		if len(sites) == 0 {
			for id := range n {
				sites = append(sites, netlist.ID(id))
			}
		}

		scalar := core.MustNew(c, sp, core.Options{Rules: rs})
		eng := core.NewBatch(core.MustNew(c, sp, core.Options{Rules: rs}), w)
		res := make([]core.Result, w)
		for lo := 0; lo < len(sites); lo += w {
			batch := sites[lo:min(lo+w, len(sites))]
			eng.EPPBatch(batch, res[:len(batch)])
			if d := core.LiveMaskDiff(scalar, eng, batch); d != "" {
				t.Fatalf("rules %v width %d: %s", rs, w, d)
			}
			for i, site := range batch {
				if d := core.DiffResult(res[i], scalar.EPP(site)); d != "" {
					t.Fatalf("rules %v width %d site %d: %s", rs, w, site, d)
				}
			}
		}

		req := engine.Request{Circuit: c, SP: sp, BatchWidth: w, Frames: 1 + int(frames)%3, Workers: 1 + 2*int(workers%2)}
		if req.Frames == 1 {
			req.Rules = rs // the multi-cycle composition takes closed-form rules only
		}
		outs := map[string][]float64{}
		for _, name := range []string{"epp-batch", "epp-scalar"} {
			e, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			r := req
			outs[name] = make([]float64, n)
			if err := e.PSensitizedAll(context.Background(), &r, outs[name]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for id, b := range outs["epp-batch"] {
			if s := outs["epp-scalar"][id]; math.Float64bits(b) != math.Float64bits(s) {
				t.Fatalf("frames %d rules %v site %d: epp-batch %v, epp-scalar %v", req.Frames, req.Rules, id, b, s)
			}
		}

		// The shard leg: epp-batch swept as the site ranges [0, cut) and
		// [cut, n), each writing only its own range, must give the unsplit
		// sweep bit for bit.
		if n < 2 {
			return
		}
		cut := 1 + int(seed%uint64(n-1))
		e, err := engine.Lookup("epp-batch")
		if err != nil {
			t.Fatal(err)
		}
		merged := make([]float64, n)
		for _, r := range [][2]int{{0, cut}, {cut, n}} {
			sr := req
			sr.SiteLo, sr.SiteHi = r[0], r[1]
			shard := make([]float64, n)
			if err := e.PSensitizedAll(context.Background(), &sr, shard); err != nil {
				t.Fatalf("shard [%d, %d): %v", r[0], r[1], err)
			}
			copy(merged[r[0]:r[1]], shard[r[0]:r[1]])
		}
		for id, b := range outs["epp-batch"] {
			if m := merged[id]; math.Float64bits(m) != math.Float64bits(b) {
				t.Fatalf("frames %d rules %v site %d: shards [0, %d) and [%d, %d) give %v, the unsplit sweep %v",
					req.Frames, req.Rules, id, cut, cut, n, m, b)
			}
		}
	})
}
