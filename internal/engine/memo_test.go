// Memo-assisted site-major sweeps: restored sites are taken out of the
// cone-locality schedule and the misses pack into full-width batches, so a
// sweep with scattered hits costs no more swept nodes than a cold one and
// returns the cold sweep's bits.

package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/eco"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// primeMemo stores vals (indexed by site ID) for sites in req.Memo, under
// the memo key and cone hashes the epp-batch engine uses for req.
func primeMemo(req *Request, sites []netlist.ID, vals []float64) {
	req.Memo.Store(req.memoKey("epp-batch", false), req.memoHashes("epp-batch", req.sp()), sites, vals)
}

// everyKth returns the site IDs 0, k, 2k, … below n.
func everyKth(n, k int) []netlist.ID {
	var ids []netlist.ID
	for id := 0; id < n; id += k {
		ids = append(ids, netlist.ID(id))
	}
	return ids
}

// sweepBatch runs one epp-batch sweep of req and returns its output.
func sweepBatch(tb testing.TB, req *Request) []float64 {
	tb.Helper()
	e, err := Lookup("epp-batch")
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]float64, req.Circuit.N())
	if err := e.PSensitizedAll(context.Background(), req, out); err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestMemoSweepPacksScatteredHits: with every 2nd or every 5th site
// restored from the memo, an epp-batch sweep returns the cold sweep's bits
// (s9234 at 1 and 4 workers and 1 and 3 frames; without -short also
// s38417 at 4 workers and one frame), analyzes exactly the misses, and
// visits no more union-cone nodes than the cold sweep. Cutting the sweep at
// every restored gap (one span per run of misses) costs ~23× cold on
// s9234 at every 2nd site. The node counts, cold and memo-assisted, are the
// same at every worker count (a multi-cycle sweep builds its flip-flop
// lookahead once), and a sweep with every site restored visits no node at
// all, not even the lookahead's.
func TestMemoSweepPacksScatteredHits(t *testing.T) {
	type memoCase struct {
		name            string
		frames, workers []int
	}
	cases := []memoCase{{"s9234", []int{1, 3}, []int{1, 4}}}
	if !testing.Short() {
		cases = append(cases, memoCase{"s38417", []int{1}, []int{4}})
	}
	for _, tc := range cases {
		c, err := gen.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		n := c.N()
		for _, frames := range tc.frames {
			// Swept nodes per hit pattern (0 = cold), from the first worker
			// count; every other worker count must reproduce them.
			firstSwept := map[int]int64{}
			checkSwept := func(label string, k int, swept int64) {
				t.Helper()
				if want, ok := firstSwept[k]; !ok {
					firstSwept[k] = swept
				} else if swept != want {
					t.Errorf("%s: swept %d union-cone nodes, %d at %d workers", label, swept, want, tc.workers[0])
				}
			}
			for _, workers := range tc.workers {
				coldSt := &Stats{}
				cold := sweepBatch(t, &Request{Circuit: c, Frames: frames, Workers: workers, Stats: coldSt})
				checkSwept(fmt.Sprintf("%s/frames%d/workers%d/cold", tc.name, frames, workers), 0, coldSt.SweptNodes.Load())
				for _, k := range []int{2, 5} {
					label := fmt.Sprintf("%s/frames%d/workers%d/every%d", tc.name, frames, workers, k)
					st := &Stats{}
					req := &Request{Circuit: c, Frames: frames, Workers: workers, Memo: eco.NewCache(), Stats: st}
					hit := everyKth(n, k)
					primeMemo(req, hit, cold)
					got := sweepBatch(t, req)
					for id := range got {
						if math.Float64bits(got[id]) != math.Float64bits(cold[id]) {
							t.Fatalf("%s: site %d = %v, cold sweep %v", label, id, got[id], cold[id])
						}
					}
					if hits := st.MemoHits.Load(); hits != int64(len(hit)) {
						t.Errorf("%s: MemoHits = %d, want %d", label, hits, len(hit))
					}
					if sum := st.Sites.Load() + st.MemoHits.Load(); sum != int64(n) {
						t.Errorf("%s: Sites + MemoHits = %d, want %d", label, sum, n)
					}
					swept, coldSwept := st.SweptNodes.Load(), coldSt.SweptNodes.Load()
					if swept > coldSwept {
						t.Errorf("%s: swept %d union-cone nodes, more than the cold sweep's %d", label, swept, coldSwept)
					}
					checkSwept(label, k, swept)
					t.Logf("%s: swept nodes %d (cold %d, %.1f%%)", label, swept, coldSwept, 100*float64(swept)/float64(coldSwept))
				}
				if frames > 1 {
					// Every site restored: no strike sweep, no lookahead.
					st := &Stats{}
					req := &Request{Circuit: c, Frames: frames, Workers: workers, Memo: eco.NewCache(), Stats: st}
					primeMemo(req, siteIDs(n), cold)
					got := sweepBatch(t, req)
					for id := range got {
						if math.Float64bits(got[id]) != math.Float64bits(cold[id]) {
							t.Fatalf("%s/frames%d/workers%d/all: site %d = %v, cold sweep %v", tc.name, frames, workers, id, got[id], cold[id])
						}
					}
					if hits, swept := st.MemoHits.Load(), st.SweptNodes.Load(); hits != int64(n) || swept != 0 {
						t.Errorf("%s/frames%d/workers%d/all: MemoHits %d, SweptNodes %d, want %d and 0", tc.name, frames, workers, hits, swept, n)
					}
				}
			}
		}
	}
}

// FuzzMemoRestore: on a small or large random circuit (gen.FuzzParams) with the
// sites a fuzzed bitmask selects restored from the memo — bit i of mask
// marks site N−1−i, so a one-byte mask reaches the last sites of any
// circuit — an epp-batch sweep at a fuzzed batch width (1–64), frame count
// (1–3) and worker count (1 or 3) returns the cold sweep's bits, in the
// cone-locality order and in ascending-ID order (OrderedSweep). Its OnBatch
// ranges tile [0, N) exactly once, Sites + MemoHits is N, and a rerun on
// the same cache restores every site with the same bits.
func FuzzMemoRestore(f *testing.F) {
	all := bytes.Repeat([]byte{0xff}, 16)
	alternating := bytes.Repeat([]byte{0x55}, 16)
	f.Add(uint64(1), uint8(20), uint8(1), uint8(2), uint8(0x27), all, uint8(63), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(2), uint8(0), uint8(0x4b), []byte{}, uint8(7), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(75), uint8(3), uint8(5), uint8(0xf1), alternating, uint8(15), uint8(2), uint8(1))
	f.Add(uint64(4), uint8(60), uint8(0), uint8(3), uint8(0x9e), []byte{0x01}, uint8(0), uint8(2), uint8(0))
	f.Add(uint64(5), uint8(0xc4), uint8(1), uint8(4), uint8(0x2d), alternating, uint8(63), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, size, fanin, ffs, mix uint8, mask []byte, width, frames, workers uint8) {
		c, err := gen.Random(gen.FuzzParams(seed, size, fanin, ffs, mix))
		if err != nil {
			t.Skip(err)
		}
		n := c.N()
		base := Request{
			Circuit:    c,
			BatchWidth: 1 + int(width)%64,
			Frames:     1 + int(frames)%3,
			Workers:    1 + 2*int(workers%2),
		}
		cold := sweepBatch(t, &base)
		var hit []netlist.ID
		for id := 0; id < n; id++ {
			if i := n - 1 - id; i/8 < len(mask) && mask[i/8]>>(i%8)&1 != 0 {
				hit = append(hit, netlist.ID(id))
			}
		}
		for _, ordered := range []bool{false, true} {
			cache := eco.NewCache()
			st := &Stats{}
			req := base
			req.Memo, req.Stats, req.OrderedSweep = cache, st, ordered
			primeMemo(&req, hit, cold)
			var mu sync.Mutex
			seen := make([]int, n)
			req.OnBatch = func(lo, hi int) error {
				mu.Lock()
				defer mu.Unlock()
				for pos := lo; pos < hi; pos++ {
					seen[pos]++
				}
				return nil
			}
			got := sweepBatch(t, &req)
			for id := range got {
				if math.Float64bits(got[id]) != math.Float64bits(cold[id]) {
					t.Fatalf("ordered=%v: site %d = %v, cold sweep %v", ordered, id, got[id], cold[id])
				}
				if seen[id] != 1 {
					t.Fatalf("ordered=%v: OnBatch covered position %d %d times", ordered, id, seen[id])
				}
			}
			if hits := st.MemoHits.Load(); hits != int64(len(hit)) {
				t.Fatalf("ordered=%v: MemoHits = %d, want %d", ordered, hits, len(hit))
			}
			if sum := st.Sites.Load() + st.MemoHits.Load(); sum != int64(n) {
				t.Fatalf("ordered=%v: Sites + MemoHits = %d, want %d", ordered, sum, n)
			}
			// Every swept batch was committed: a rerun restores all sites.
			rerun := base
			rerun.Memo, rerun.Stats = cache, &Stats{}
			again := sweepBatch(t, &rerun)
			if hits := rerun.Stats.MemoHits.Load(); hits != int64(n) {
				t.Fatalf("ordered=%v: rerun MemoHits = %d, want %d", ordered, hits, n)
			}
			for id := range again {
				if math.Float64bits(again[id]) != math.Float64bits(cold[id]) {
					t.Fatalf("ordered=%v: rerun site %d = %v, cold sweep %v", ordered, id, again[id], cold[id])
				}
			}
		}
	})
}

// BenchmarkMemoSweep times an epp-batch sweep of s9234 at one worker with
// every 2nd or every 5th site restored from the memo (primed outside the
// timer) and reports the union-cone nodes it visits per op; the cold sweep
// visits ~258k.
func BenchmarkMemoSweep(b *testing.B) {
	c, err := gen.ByName("s9234")
	if err != nil {
		b.Fatal(err)
	}
	cold := sweepBatch(b, &Request{Circuit: c, Workers: 1})
	for _, k := range []int{2, 5} {
		b.Run(fmt.Sprintf("every%d", k), func(b *testing.B) {
			hit := everyKth(c.N(), k)
			st := &Stats{}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				req := &Request{Circuit: c, Workers: 1, Memo: eco.NewCache(), Stats: st}
				primeMemo(req, hit, cold)
				b.StartTimer()
				sweepBatch(b, req)
			}
			b.ReportMetric(float64(st.SweptNodes.Load())/float64(b.N), "swept_nodes/op")
		})
	}
}
