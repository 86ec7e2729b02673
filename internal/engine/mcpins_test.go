// Pins the monte-carlo engine's completed checkpoint bytes and the batched
// kernel's work counters, so a refactor of the word-major kernel or its
// counter plumbing must reproduce both verbatim.

package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/resume"
	"repro/internal/simulate"
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
		want   string // hex SHA-256 of the completed checkpoint file
	}{
		{1, "91cf68149c74dd03de0f56909874b75529c92295065cfd586df27044fe6f977b"},
		{3, "af3da0a0e04f37ff1c2f331ddbe86aa023e784cce0063200ee3ac3e152abbab6"},
	}
	for _, tc := range files {
		path := filepath.Join(t.TempDir(), "mc.ckpt")
		req := &Request{Circuit: c, Frames: tc.frames, Vectors: vectors, Seed: seed, Workers: 2,
			Resume: resume.New(path, time.Hour)}
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
	}

	opt := simulate.MCOptions{Vectors: vectors, Seed: seed}
	single := simulate.NewMCBatch(c, opt)
	if _, err := single.PDetectAll(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	multi := simulate.NewMCSeqBatch(c, opt, 3)
	if _, err := multi.PDetectAll(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	stats := []struct {
		name string
		got  simulate.MCStats
		want [4]int64 // Words, GoodSims, LaneSims, SweptMembers
	}{
		{"single-cycle", single.Stats(), [4]int64{10, 10, 587970, 17360}},
		{"multi-cycle", multi.Stats(), [4]int64{10, 30, 4180010, 76180}},
	}
	for _, s := range stats {
		got := [4]int64{s.got.Words, s.got.GoodSims, s.got.LaneSims, s.got.SweptMembers}
		if got != s.want {
			t.Errorf("%s: MCStats {Words, GoodSims, LaneSims, SweptMembers} = %v, want %v", s.name, got, s.want)
		}
	}
}
