package resume

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSiteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	cp := New(path, 0)
	st, err := cp.Arm("epp-batch", "fp1", KindSites, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.DoneUnits() != 0 {
		t.Fatalf("fresh state has %d done units", st.DoneUnits())
	}
	// Values chosen to break any float round-tripping that is not
	// bit-exact: a subnormal, an irrational dense in mantissa bits, NaN.
	vals := []float64{math.SmallestNonzeroFloat64, math.Pi, math.NaN(), 0.1}
	if err := st.CommitSites(2, 6, vals); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitSites(8, 10, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}

	st2, err := New(path, 0).Arm("epp-batch", "fp1", KindSites, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.DoneUnits(); got != 6 {
		t.Fatalf("restored %d done units, want 6", got)
	}
	wantRanges := []Range{{2, 6}, {8, 10}}
	gotRanges := st2.DoneRanges()
	if len(gotRanges) != len(wantRanges) {
		t.Fatalf("restored ranges %v, want %v", gotRanges, wantRanges)
	}
	for i := range wantRanges {
		if gotRanges[i] != wantRanges[i] {
			t.Fatalf("restored ranges %v, want %v", gotRanges, wantRanges)
		}
	}
	out := make([]float64, 10)
	st2.RestoreSites(out)
	for i, want := range vals {
		got := out[2+i]
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("restored out[%d] = %x, want %x (not bit-exact)", 2+i, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if out[8] != 1 || out[9] != 2 {
		t.Errorf("restored out[8:10] = %v, want [1 2]", out[8:10])
	}
	if out[0] != 0 || out[6] != 0 {
		t.Errorf("units never committed must stay zero, got out[0]=%v out[6]=%v", out[0], out[6])
	}
}

func TestWordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	st, err := New(path, 0).Arm("monte-carlo", "fp", KindWords, 8)
	if err != nil {
		t.Fatal(err)
	}
	snap := Counters{Detected: []int64{3, 0, 7}, Words: 3, GoodSims: 3}
	for _, r := range []Range{{1, 3}, {5, 6}} {
		if err := st.CommitWords(r.Lo, r.Hi, func() Counters { return snap }); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := New(path, 0).Arm("monte-carlo", "fp", KindWords, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st2.DoneRanges(), []Range{{1, 3}, {5, 6}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored done ranges %v, want %v", got, want)
	}
	if got := st2.DoneUnits(); got != 3 {
		t.Fatalf("restored %d done units, want 3", got)
	}
	c := st2.Counters()
	if c == nil || c.Words != 3 || len(c.Detected) != 3 || c.Detected[2] != 7 {
		t.Fatalf("restored counters %+v, want %+v", c, snap)
	}
}

func TestArmMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	st, err := New(path, 0).Arm("epp-batch", "fp1", KindSites, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CommitSites(0, 2, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		eng, fp, kind string
		units         int
	}{
		{"epp-scalar", "fp1", KindSites, 4}, // engine changed
		{"epp-batch", "fp2", KindSites, 4},  // request changed
		{"epp-batch", "fp1", KindWords, 4},  // kind changed
		{"epp-batch", "fp1", KindSites, 5},  // unit count changed
	}
	for _, tc := range cases {
		if _, err := New(path, 0).Arm(tc.eng, tc.fp, tc.kind, tc.units); err == nil {
			t.Errorf("Arm(%q,%q,%q,%d) against a mismatched checkpoint succeeded; want error", tc.eng, tc.fp, tc.kind, tc.units)
		}
	}
	// The matching identity still arms.
	if _, err := New(path, 0).Arm("epp-batch", "fp1", KindSites, 4); err != nil {
		t.Errorf("matching Arm failed: %v", err)
	}
}

func TestLoadRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if f, err := Load(filepath.Join(dir, "absent.json")); f != nil || err != nil {
		t.Errorf("Load(absent) = %v, %v; want nil, nil", f, err)
	}
	if _, err := Load(write("garbage.json", "{")); err == nil {
		t.Error("Load accepted truncated JSON")
	}
	if _, err := Load(write("version.json", `{"version":99,"kind":"sites"}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("Load accepted unknown version: %v", err)
	}
	if _, err := Load(write("kind.json", `{"version":1,"kind":"bogus"}`)); err == nil {
		t.Error("Load accepted unknown kind")
	}
	if _, err := Load(write("range.json", `{"version":1,"kind":"words","units":4,"done":[{"lo":3,"hi":2}]}`)); err == nil {
		t.Error("Load accepted malformed range")
	}
	if _, err := Load(write("values.json", `{"version":1,"kind":"sites","units":4,"done":[{"lo":0,"hi":2}],"values":[1]}`)); err == nil {
		t.Error("Load accepted values/done length mismatch")
	}
}

// TestChecksumWrittenAndVerified: every written file carries a checksum
// that verifies on load, and any byte-level tampering that keeps the JSON
// parseable is caught as a *CorruptError.
func TestChecksumWrittenAndVerified(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	st, err := New(path, 0).Arm("epp-batch", "fp", KindSites, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CommitSites(0, 2, []float64{0.25, 0.5}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Version != Version || f.Checksum == "" || f.Checksum != f.checksum() {
		t.Fatalf("written file version=%d checksum=%q (recomputed %q)", f.Version, f.Checksum, f.checksum())
	}

	// Flip one stored value bit while keeping valid JSON: the checksum
	// must catch it.
	tampered := strings.Replace(string(data), `"values":[`, `"values":[1,`, 1)
	if tampered == string(data) {
		t.Fatal("tamper produced identical bytes")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "checksum") {
		t.Fatalf("Load(tampered) = %v, want *CorruptError with checksum reason", err)
	}
}

// TestLegacyVersion1StillLoads: a version-1 file (no checksum) written by
// an older build resumes without an integrity check — the compatibility
// promise of the version bump.
func TestLegacyVersion1StillLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	legacy := File{
		Version:     legacyVersion,
		Engine:      "epp-batch",
		Fingerprint: "fp",
		Kind:        KindSites,
		Units:       4,
		Done:        []Range{{0, 2}},
		Values:      []uint64{math.Float64bits(0.25), math.Float64bits(0.5)},
	}
	data, err := json.Marshal(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := New(path, 0).Arm("epp-batch", "fp", KindSites, 4)
	if err != nil {
		t.Fatalf("Arm against legacy v1 file: %v", err)
	}
	out := make([]float64, 4)
	st.RestoreSites(out)
	if out[0] != 0.25 || out[1] != 0.5 {
		t.Fatalf("legacy restore: %v", out)
	}
	// Committing more work rewrites the file at the current version, with
	// a checksum.
	if err := st.CommitSites(2, 4, []float64{0.75, 1}); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil || f.Version != Version || f.Checksum == "" {
		t.Fatalf("rewritten legacy file: %+v, %v", f, err)
	}
}

// TestArmQuarantinesCorruptFile: Arm moves an unreadable checkpoint to
// <path>.corrupt and reports a structured error; the immediate re-Arm (and
// ArmRecovering in one call) starts fresh while the quarantined bytes
// survive for forensics.
func TestArmQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := os.WriteFile(path, []byte(`{"version":2,"kind":"sites",`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(path, 0).Arm("epp-batch", "fp", KindSites, 4)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Arm(corrupt) = %v, want *CorruptError", err)
	}
	if ce.Quarantined != path+".corrupt" {
		t.Fatalf("quarantine path %q", ce.Quarantined)
	}
	if _, serr := os.Stat(ce.Quarantined); serr != nil {
		t.Fatalf("quarantined file missing: %v", serr)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("corrupt file still in place (stat err %v)", serr)
	}
	// The path is clear now: a fresh Arm succeeds with no restored work.
	st, err := New(path, 0).Arm("epp-batch", "fp", KindSites, 4)
	if err != nil || st.DoneUnits() != 0 {
		t.Fatalf("re-Arm after quarantine: %v (done %d)", err, st.DoneUnits())
	}

	// ArmRecovering folds both steps: corrupt file in place, one call.
	path2 := filepath.Join(dir, "ck2.json")
	if err := os.WriteFile(path2, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, ce2, err := New(path2, 0).ArmRecovering("epp-batch", "fp", KindSites, 4)
	if err != nil || ce2 == nil || st2 == nil || st2.DoneUnits() != 0 {
		t.Fatalf("ArmRecovering = %v, %v, %v", st2, ce2, err)
	}

	// An identity mismatch is NOT corruption: no quarantine, hard error.
	path3 := filepath.Join(dir, "ck3.json")
	st3, err := New(path3, 0).Arm("epp-batch", "fpA", KindSites, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st3.CommitSites(0, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	_, ce3, err := New(path3, 0).ArmRecovering("epp-batch", "fpB", KindSites, 4)
	if err == nil || ce3 != nil {
		t.Fatalf("mismatched fingerprint: err=%v ce=%v (want hard error, no quarantine)", err, ce3)
	}
	if _, serr := os.Stat(path3); serr != nil {
		t.Fatalf("mismatched file was moved: %v", serr)
	}
}

func TestIntervalCadence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	// A huge interval: only the initial commit cadence decides writes — with
	// interval > 0 nothing is due immediately, so no file appears until Flush.
	st, err := New(path, 1e18).Arm("epp-batch", "fp", KindSites, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CommitSites(0, 2, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint written before cadence was due (stat err %v)", err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil || f == nil {
		t.Fatalf("Load after Flush: %v, %v", f, err)
	}
	if len(f.Done) != 1 || f.Done[0] != (Range{0, 2}) {
		t.Fatalf("flushed done = %v, want [{0 2}]", f.Done)
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	st, err := New(path, 0).Arm("epp-batch", "fp", KindSites, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CommitSites(0, 2, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "ck.json" {
			t.Errorf("stray file %q left next to the checkpoint", e.Name())
		}
	}
	// The written file is valid standalone JSON of the documented shape.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Version != Version {
		t.Fatalf("written version %d, want %d", f.Version, Version)
	}
}

// TestWriteFileAtomicRemovesTempOnError: a rename that fails (the target
// is a directory) returns the error and leaves only what was there.
func TestWriteFileAtomicRemovesTempOnError(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "out")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("data")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out" {
		t.Fatalf("directory holds %v after a failed write, want only the target", entries)
	}
	file := filepath.Join(dir, "file")
	if err := WriteFileAtomic(file, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(file); err != nil || string(got) != "data" {
		t.Fatalf("read back %q (err %v)", got, err)
	}
}

func TestWordFlushRefusesInconsistentState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	st, err := New(path, 1e18).Arm("monte-carlo", "fp", KindWords, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Commit without a due write: done bits advance, counters do not.
	if err := st.CommitWords(0, 1, func() Counters { t.Fatal("snap called though no write was due"); return Counters{} }); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Flush wrote a word-major state whose counters lag its done bits")
	}
	// FlushCounters with a consistent snapshot does write.
	if err := st.FlushCounters(Counters{Detected: []int64{1}, Words: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("FlushCounters did not write: %v", err)
	}
}

// TestPendingOffsetRange: tiling a sub-range [lo, hi) cuts each gap from its
// own start, which is what a site-range shard and a resumed sweep schedule.
func TestPendingOffsetRange(t *testing.T) {
	cases := []struct {
		lo, hi, chunk int
		done          []Range
		want          []Range
	}{
		{lo: 5, hi: 12, chunk: 3, want: []Range{{5, 8}, {8, 11}, {11, 12}}},
		{lo: 5, hi: 12, chunk: 3, done: []Range{{6, 7}, {10, 12}}, want: []Range{{5, 6}, {7, 10}}},
		{lo: 5, hi: 5, chunk: 3, want: nil},
		{lo: 0, hi: 4, chunk: 8, done: []Range{{0, 4}}, want: nil},
	}
	for i, tc := range cases {
		got := Pending(tc.lo, tc.hi, tc.chunk, tc.done)
		if len(got) != len(tc.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, tc.want)
		}
		for j := range got {
			if got[j] != tc.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, tc.want)
			}
		}
	}
}

// TestVersion2WordsLoads: a version-2 word-major file, whose counters carry
// the retired lane_sims and swept_members fields under its checksum, loads
// with those fields dropped, and a tampered retired field still fails the
// checksum.
func TestVersion2WordsLoads(t *testing.T) {
	type v2Counters struct {
		Detected     []int64 `json:"detected"`
		Words        int64   `json:"words"`
		GoodSims     int64   `json:"good_sims"`
		LaneSims     int64   `json:"lane_sims"`
		SweptMembers int64   `json:"swept_members"`
	}
	type v2File struct {
		Version     int         `json:"version"`
		Engine      string      `json:"engine"`
		Fingerprint string      `json:"fingerprint"`
		Kind        string      `json:"kind"`
		Units       int         `json:"units"`
		Done        []Range     `json:"done"`
		Counters    *v2Counters `json:"counters,omitempty"`
		Checksum    string      `json:"checksum,omitempty"`
	}
	f := v2File{Version: 2, Engine: "monte-carlo", Fingerprint: "fp", Kind: KindWords, Units: 8,
		Done:     []Range{{0, 3}},
		Counters: &v2Counters{Detected: []int64{4, 0, 9}, Words: 3, GoodSims: 3, LaneSims: 17, SweptMembers: 6}}
	data, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	f.Checksum = hex.EncodeToString(sum[:])
	if data, err = json.Marshal(&f); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	st, err := New(path, 0).Arm("monte-carlo", "fp", KindWords, 8)
	if err != nil {
		t.Fatalf("Arm against a version-2 word file: %v", err)
	}
	c := st.Counters()
	if got, want := st.DoneRanges(), []Range{{0, 3}}; !reflect.DeepEqual(got, want) || c == nil ||
		!reflect.DeepEqual(c.Detected, []int64{4, 0, 9}) || c.Words != 3 || c.GoodSims != 3 {
		t.Fatalf("restored %v and %+v", got, c)
	}

	tampered := bytes.Replace(data, []byte(`"lane_sims":17`), []byte(`"lane_sims":18`), 1)
	if err := os.WriteFile(path, tampered, 0o600); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := Load(path); !errors.As(err, &ce) {
		t.Fatalf("tampered version-2 file: err = %v, want *CorruptError", err)
	}
}
