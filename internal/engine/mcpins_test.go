// Pins the monte-carlo engine's completed checkpoint bytes and its work
// counters, so a refactor of the word-major kernel or its counter plumbing
// must reproduce both verbatim.

package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/resume"
)

func TestMCCheckpointPins(t *testing.T) {
	c, err := gen.ByName("s953")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Lookup("monte-carlo")
	if err != nil {
		t.Fatal(err)
	}
	const vectors, seed = 640, 5
	files := []struct {
		frames int
		want   string   // hex SHA-256 of the completed checkpoint file
		work   [3]int64 // Stats {Words, GoodSims, SweptNodes}
	}{
		{1, "305ef4c3b180cc0e36d66fcde706ac391eddc83c770337327fefa3cbfae922bc", [3]int64{10, 10, 50066}},
		{3, "8f1dafbb2b1ad54846cffb52bd15b15481dc4aa4b491fc526f6937630daa51db", [3]int64{10, 30, 128552}},
	}
	for _, tc := range files {
		path := filepath.Join(t.TempDir(), "mc.ckpt")
		st := &Stats{}
		req := &Request{Circuit: c, Frames: tc.frames, Vectors: vectors, Seed: seed, Workers: 2,
			Resume: resume.New(path, time.Hour), Stats: st}
		if err := mc.PSensitizedAll(context.Background(), req, make([]float64, c.N())); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("frames %d: checkpoint sha256 = %s, want %s", tc.frames, got, tc.want)
		}
		if got := [3]int64{st.Words.Load(), st.GoodSims.Load(), st.SweptNodes.Load()}; got != tc.work {
			t.Errorf("frames %d: Stats {Words, GoodSims, SweptNodes} = %v, want %v", tc.frames, got, tc.work)
		}
	}
}

// TestMCResumeVersion2Checkpoint resumes the partial checkpoints a
// word-at-a-time kernel wrote in format version 2 (s953, 640 vectors, seed
// 5, frames 1 and 3, words [0, 3) done, counters still carrying the
// retired lane_sims and swept_members): the sweep must finish with every
// site's bits equal to an uninterrupted run's, the file must not be
// quarantined, and the rewritten checkpoint must equal an uninterrupted
// checkpointed run's byte for byte.
func TestMCResumeVersion2Checkpoint(t *testing.T) {
	c, err := gen.ByName("s953")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Lookup("monte-carlo")
	if err != nil {
		t.Fatal(err)
	}
	for _, frames := range []int{1, 3} {
		fixture, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("mc-v2-s953-f%d.ckpt", frames)))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		run := func(path string) []float64 {
			t.Helper()
			req := &Request{Circuit: c, Frames: frames, Vectors: 640, Seed: 5, Workers: 2}
			if path != "" {
				req.Resume = resume.New(path, time.Hour)
			}
			out := make([]float64, c.N())
			if err := mc.PSensitizedAll(context.Background(), req, out); err != nil {
				t.Fatalf("frames %d: %v", frames, err)
			}
			return out
		}
		resumed := filepath.Join(dir, "old.ckpt")
		if err := os.WriteFile(resumed, fixture, 0o600); err != nil {
			t.Fatal(err)
		}
		got, want := run(resumed), run("")
		for id := range want {
			if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
				t.Fatalf("frames %d site %d: resumed %v, uninterrupted %v", frames, id, got[id], want[id])
			}
		}
		if _, err := os.Stat(resumed + ".corrupt"); !os.IsNotExist(err) {
			t.Fatalf("frames %d: the version-2 checkpoint was quarantined", frames)
		}
		fresh := filepath.Join(dir, "fresh.ckpt")
		run(fresh)
		a, err := os.ReadFile(resumed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("frames %d: checkpoint after resuming the version-2 file differs from an uninterrupted run's", frames)
		}
	}
}
