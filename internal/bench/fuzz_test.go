package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse exercises the hand-written .bench parser with arbitrary input:
// it must never panic, and any input it accepts must survive a
// write/re-parse round trip with the node count preserved.
func FuzzParse(f *testing.F) {
	seeds := []string{
		sampleSrc,
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
		"INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n",
		"# only a comment\n",
		"INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = XOR(a, q)\n",
		"y = AND(", "INPUT(", "OUTPUT()", "a = ", "= NOT(a)",
		"INPUT(a)\ny=BUFF(a)\nOUTPUT(y)",
		strings.Repeat("INPUT(x)\n", 3),
		"INPUT(a)\nOUTPUT(y)\nz = CONST0()\ny = OR(a, z)\n",
	}
	// Real benchmark fixtures give the mutator a full valid netlist to start
	// from, reaching much deeper parser and writer states than the synthetic
	// fragments above.
	files, err := filepath.Glob("../../testdata/*.bench")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(data))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if werr := Write(&buf, c); werr != nil {
			t.Fatalf("accepted netlist did not serialize: %v\ninput: %q", werr, src)
		}
		c2, rerr := Parse(&buf)
		if rerr != nil {
			t.Fatalf("accepted netlist did not round-trip: %v\ninput: %q\nemitted:\n%s",
				rerr, src, buf.String())
		}
		if c2.N() != c.N() {
			t.Fatalf("round trip changed node count %d -> %d for input %q", c.N(), c2.N(), src)
		}
	})
}
