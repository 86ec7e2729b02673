// Pins the epp-batch engine's P_sensitized bits, so a change to the batched
// EPP kernel (lane skipping, fanin hoisting, scratch reuse) must reproduce
// every site's value bit for bit.

package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sigprob"
)

func TestEPPBatchBitsPin(t *testing.T) {
	// Hex SHA-256 of the little-endian float64 bits of out[0..N), keyed by
	// circuit/sp/rules/frames.
	want := map[string]string{
		"s953/topo/closed-form/frames1":  "5e50155a035dbf678475e1eb431d2e266f975e3b943d8d3299c1bd973ad38551",
		"s953/topo/pairwise/frames1":     "8bdf0a13cf39ef2485143538de94ca210db399cb65e65887dcf4b3c8087659e9",
		"s953/topo/no-polarity/frames1":  "7b4bbe895f008790b0d99e41cad1c82b3904444cafee9f59eca0e2005658420a",
		"s953/topo/closed-form/frames3":  "34199732cd9421344609d54e2be8982d8bd2d4bf9a00774a11ef7e00d7046a8c",
		"s953/mc/closed-form/frames1":    "67e730c839c970af17f510f48d6e3cdb19aa8cbb42f85223d3807c424e0c8a8f",
		"s953/mc/pairwise/frames1":       "d164b60105810e69c6605436344d0988ded4251c445259dbbcb3b25f4d66e5b3",
		"s953/mc/no-polarity/frames1":    "eb2255ab341f93844de3d4d7da240da60cdad865cfc226511c6420c852012628",
		"s953/mc/closed-form/frames3":    "70013f0f5e0781e16ecd28224c8ba280f9ff7b96c07ba71f7044182e4b392cce",
		"s1423/topo/closed-form/frames1": "5cf69e0793549bde8bb9328c562dea918356fe536b862cc73a6792d87d1072a6",
		"s1423/topo/pairwise/frames1":    "00d6bd8b3df1c73dccc8d789f02469124602ce58349277fde25aaae688840d02",
		"s1423/topo/no-polarity/frames1": "5e582192211250074d910576dd129f6977afe83eea75f8a9ef66e143fbcc28d5",
		"s1423/topo/closed-form/frames3": "d38cbc4bf34295d6dbd709ab542b51469791f944d17d0de04dd585b906e27c04",
		"s1423/mc/closed-form/frames1":   "f8671782f2898156528418c3c9651006b9e67830d2b0e90c4a3e019dbae269ac",
		"s1423/mc/pairwise/frames1":      "0761e25fa689e777f7d37d380bc3cdb4c23ccf4111e7bd5433baccdcac14d9ec",
		"s1423/mc/no-polarity/frames1":   "8a045ffc0e26a491157cd929b2d2b56db458ffc9fcb85e04dabd848f1df6a96f",
		"s1423/mc/closed-form/frames3":   "1f0670d86a2f94b8e80ad5af0b204dd6985ed6a670261f9a912c98d17689ac3d",
		"s9234/topo/closed-form/frames1": "c6125b43599ef73721005c33a12d2214b420cbadad0d9223f71e36e3d40dafcf",
		"s9234/topo/pairwise/frames1":    "3cc5ccff9cb180b1b03782bc322c425fd6baadba216441e89c0cab11fac5bf23",
		"s9234/topo/no-polarity/frames1": "8c3623296eac5bb183936ba059bab11a6df11a06eb4923aad2c66a88d00c555b",
		"s9234/topo/closed-form/frames3": "768d95b7917c607c12a0ca3932173fb87f929ce81d2d5c4c402746a8f6b9b935",
		"s9234/mc/closed-form/frames1":   "7770e4b59e6a9e2ab2ecd30cb169ba132fd164a20acc4ae1707f11f654132fde",
		"s9234/mc/pairwise/frames1":      "b287e26dcba4977d53ce0d4c3787a52a778964e855e754bb1ebe2f973bfbbe84",
		"s9234/mc/no-polarity/frames1":   "11211d44cd55a95b633f450ad02f4b42fd9dfcbb3a6d0bd4fac9cee195655294",
		"s9234/mc/closed-form/frames3":   "45f6b727ece5efcdebb35c2251e37d415e8aef2f2f227cd01de3e2bae4288ef8",
	}
	e, err := Lookup("epp-batch")
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		rules  core.RuleSet
		frames int
	}
	runs := []run{{core.RulesClosedForm, 1}, {core.RulesPairwise, 1}, {core.RulesNoPolarity, 1}, {core.RulesClosedForm, 3}}
	for _, name := range []string{"s953", "s1423", "s9234"} {
		c, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sps := []struct {
			name string
			sp   []float64
		}{
			{"topo", sigprob.Topological(c, sigprob.Config{})},
			{"mc", sigprob.MonteCarlo(c, sigprob.Config{Vectors: 4096, Seed: 1})},
		}
		for _, sp := range sps {
			for _, r := range runs {
				out := make([]float64, c.N())
				req := &Request{Circuit: c, SP: sp.sp, Rules: r.rules, Frames: r.frames, Workers: 2}
				if err := e.PSensitizedAll(context.Background(), req, out); err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				var buf [8]byte
				for _, p := range out {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
					h.Write(buf[:])
				}
				key := fmt.Sprintf("%s/%s/%v/frames%d", name, sp.name, r.rules, r.frames)
				if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
					t.Errorf("%s: P_sensitized bits sha256 = %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
