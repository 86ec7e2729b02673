package eco_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/eco"
	"repro/internal/gen"
	"repro/internal/harden"
	"repro/internal/netlist"
	"repro/internal/resume"
)

func circuitFile(t testing.TB, name string) *netlist.Circuit {
	t.Helper()
	c, err := bench.ParseFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConeHashesDeterministic: the hashes are a pure function of circuit
// content — identical across repeated computation and across a deep clone.
func TestConeHashesDeterministic(t *testing.T) {
	for _, frames := range []int{1, 2, 3} {
		c := gen.SmallRandomSequential(11)
		h1 := eco.ConeHashes(c, frames)
		h2 := eco.ConeHashes(c, frames)
		h3 := eco.ConeHashes(c.Clone(), frames)
		for id := range h1 {
			if h1[id] != h2[id] || h1[id] != h3[id] {
				t.Fatalf("frames %d: hash of node %d not deterministic", frames, id)
			}
		}
	}
}

// TestConeHashesFrameSensitive: on a sequential circuit the frame count must
// change at least some cone hashes (deeper closures), while a purely
// combinational circuit's hashes may not depend on frames beyond structure.
func TestConeHashesFrameSensitive(t *testing.T) {
	c := gen.SmallRandomSequential(3)
	h1 := eco.ConeHashes(c, 1)
	h2 := eco.ConeHashes(c, 2)
	diff := 0
	for id := range h1 {
		if h1[id] != h2[id] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("frames 1 vs 2 produced identical hashes on a sequential circuit")
	}
}

// TestChangedSitesTMR: after a TMR edit, the differ must report the
// protected gate's consumers' fan-in region as changed while leaving
// disjoint cones untouched — and every new node is always reported.
func TestChangedSitesTMR(t *testing.T) {
	c := circuitFile(t, "c17.bench")
	var gate netlist.ID = -1
	for i := range c.Nodes {
		if c.Nodes[i].Kind.IsGate() {
			gate = netlist.ID(i)
			break
		}
	}
	edited, err := harden.TMR(c, []netlist.ID{gate})
	if err != nil {
		t.Fatal(err)
	}
	changed := eco.ChangedSites(c, edited, 1)
	if len(changed) == 0 {
		t.Fatal("TMR edit reported no changed sites")
	}
	mark := make(map[netlist.ID]bool, len(changed))
	for _, id := range changed {
		mark[id] = true
	}
	// The protected gate itself changed (its fanout now feeds the voter).
	if !mark[gate] {
		t.Errorf("protected gate %d not reported changed", gate)
	}
	// Every appended node is new and must be reported.
	for id := c.N(); id < edited.N(); id++ {
		if !mark[netlist.ID(id)] {
			t.Errorf("new node %d not reported changed", id)
		}
	}
	if len(changed) == edited.N() {
		t.Errorf("differ invalidated every site — no incrementality on c17 TMR")
	}
}

// TestCacheRoundTrip: Store → Lookup restores bit-identical values and
// reports the right ranges; a directory-backed cache survives reopen.
func TestCacheRoundTrip(t *testing.T) {
	c := gen.SmallRandom(5)
	n := c.N()
	dir := t.TempDir()
	ca, err := eco.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes := ca.Hashes(c, 1)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.0 / float64(i+3)
	}
	const key = "reqkey"
	ca.Store(key, hashes, idRange(0, n), vals)
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}

	reopened, err := eco.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	ranges, hits := reopened.Lookup(key, hashes, out)
	if hits != n {
		t.Fatalf("hits = %d, want %d", hits, n)
	}
	if len(ranges) != 1 || ranges[0] != (resume.Range{Lo: 0, Hi: n}) {
		t.Fatalf("ranges = %v, want one full range", ranges)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], vals[i])
		}
	}
	// A different request key shares nothing.
	if _, hits := reopened.Lookup("other", hashes, out); hits != 0 {
		t.Fatalf("foreign key hit %d entries", hits)
	}
}

// TestCachePartialRanges: holes in the hit set come back as multiple
// disjoint ranges and untouched out entries.
func TestCachePartialRanges(t *testing.T) {
	c := gen.SmallRandom(9)
	n := c.N()
	if n < 8 {
		t.Skip("circuit too small")
	}
	ca := eco.NewCache()
	hashes := ca.Hashes(c, 1)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	const key = "k"
	// Commit order is free: the second store lists its sites descending.
	ca.Store(key, hashes, idRange(0, 3), vals)
	tail := idRange(5, n)
	slices.Reverse(tail)
	ca.Store(key, hashes, tail, vals)
	out := make([]float64, n)
	for i := range out {
		out[i] = -1
	}
	ranges, hits := ca.Lookup(key, hashes, out)
	if hits != n-2 {
		t.Fatalf("hits = %d, want %d", hits, n-2)
	}
	want := []resume.Range{{Lo: 0, Hi: 3}, {Lo: 5, Hi: n}}
	if len(ranges) != 2 || ranges[0] != want[0] || ranges[1] != want[1] {
		t.Fatalf("ranges = %v, want %v", ranges, want)
	}
	if out[3] != -1 || out[4] != -1 {
		t.Fatalf("missed entries were touched: out[3]=%v out[4]=%v", out[3], out[4])
	}
}

// TestCacheCorruptFile: a torn or tampered cache file degrades to an empty
// cache (a miss is sound), never to garbage values.
func TestCacheCorruptFile(t *testing.T) {
	c := gen.SmallRandom(2)
	n := c.N()
	dir := t.TempDir()
	ca, err := eco.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes := ca.Hashes(c, 1)
	vals := make([]float64, n)
	const key = "abc123"
	ca.Store(key, hashes, idRange(0, n), vals)
	if err := ca.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".eco")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip": func(b []byte) []byte {
			b2 := append([]byte(nil), b...)
			b2[len(b2)/2] ^= 0x40
			return b2
		},
		"empty": func([]byte) []byte { return nil },
	} {
		if err := os.WriteFile(path, mut(data), 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := eco.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, n)
		if _, hits := fresh.Lookup(key, hashes, out); hits != 0 {
			t.Errorf("%s: corrupt file yielded %d hits, want 0", name, hits)
		}
	}
}

// idRange returns the site IDs lo..hi-1.
func idRange(lo, hi int) []netlist.ID {
	ids := make([]netlist.ID, 0, hi-lo)
	for id := lo; id < hi; id++ {
		ids = append(ids, netlist.ID(id))
	}
	return ids
}

// TestOpenEmptyDir: Open requires a directory.
func TestOpenEmptyDir(t *testing.T) {
	if _, err := eco.Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}
