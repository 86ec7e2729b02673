package simulate

import (
	"fmt"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// TestEvalMatchesEvalWord pins the block kernel's gate evaluation to
// logic.EvalWord, word by word: for every gate kind at each legal fanin
// count from 1 to 5, a one-gate circuit over primary inputs is simulated on
// eight random blocks. The good value of each of the block's four words,
// and the faulty value of each word with any one fanin flipped (read from
// the frame's detections at the observed gate), must equal EvalWord's of
// the same input words, so both of the kernel's evaluations — the good
// simulation and the faulty sweep — are covered.
func TestEvalMatchesEvalWord(t *testing.T) {
	kinds := []logic.Kind{logic.Buf, logic.Not, logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor}
	for _, k := range kinds {
		for n := 1; n <= 5; n++ {
			if !k.FaninOK(n) {
				continue
			}
			t.Run(fmt.Sprintf("%v%d", k, n), func(t *testing.T) {
				b := netlist.NewBuilder("eval")
				ins := make([]netlist.ID, n)
				for j := range ins {
					ins[j] = b.Input(fmt.Sprintf("x%d", j))
				}
				g := b.Gate(k, "g", ins...)
				b.MarkOutput(g)
				c, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				const blocks = 8
				wk := NewMCBatch(c, MCOptions{Vectors: 64 * MCBlock * blocks, Seed: uint64(10*k) + uint64(n)}).newWorker()
				words := make([]uint64, n)
				// want returns EvalWord over word i of the fanins, with fanin
				// flip (if any) complemented.
				want := func(i, flip int) uint64 {
					for j, in := range ins {
						words[j] = wk.good[0][in][i]
						if j == flip {
							words[j] = ^words[j]
						}
					}
					return logic.EvalWord(k, words)
				}
				for lo := 0; lo < blocks*MCBlock; lo += MCBlock {
					wk.goodSim(lo, MCBlock)
					good := wk.good[0][g]
					for i := range MCBlock {
						if w := want(i, -1); good[i] != w {
							t.Fatalf("words %d: good word %d is %#x, EvalWord %#x", lo, i, good[i], w)
						}
					}
					for flip, in := range ins {
						v := wk.good[0][in]
						wk.inj = append(wk.inj[:0], mcInject{node: in, v: block{^v[0], ^v[1], ^v[2], ^v[3]}})
						det := wk.frame(0)
						for i := range MCBlock {
							if got, w := good[i]^det[i], want(i, flip); got != w {
								t.Fatalf("words %d, fanin %d flipped: faulty word %d is %#x, EvalWord %#x", lo, flip, i, got, w)
							}
						}
					}
				}
			})
		}
	}
}
