package bench

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sigprob"
)

const sampleSrc = `
# simple sequential sample
INPUT(G0)
INPUT(G1)
OUTPUT(G5)

G2 = DFF(G4)        # state element
G3 = NAND(G0, G1)
G4 = OR(G3, G2)
G5 = NOT(G4)
`

func TestParseSample(t *testing.T) {
	c, err := ParseString(sampleSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.N() != 6 {
		t.Fatalf("N = %d, want 6", c.N())
	}
	if len(c.PIs) != 2 || len(c.POs) != 1 || len(c.FFs) != 1 {
		t.Fatalf("interface: %d/%d/%d", len(c.PIs), len(c.POs), len(c.FFs))
	}
	g3 := c.ByName("G3")
	if c.Node(g3).Kind != logic.Nand {
		t.Errorf("G3 kind = %v", c.Node(g3).Kind)
	}
	if len(c.Node(g3).Fanin) != 2 {
		t.Errorf("G3 fanin = %v", c.Node(g3).Fanin)
	}
	// DFF forward reference: G2 = DFF(G4) references G4 before definition.
	g2 := c.ByName("G2")
	if c.Node(g2).Kind != logic.DFF || c.NameOf(c.Node(g2).Fanin[0]) != "G4" {
		t.Errorf("G2 = %+v", c.Node(g2))
	}
	if !c.Node(c.ByName("G5")).IsPO {
		t.Error("G5 not marked PO")
	}
}

func TestParseCaseInsensitiveAndWhitespace(t *testing.T) {
	src := "input( a )\noutput(y)\ny = nand( a , a )\n"
	c, err := ParseString(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Node(c.ByName("y")).Kind != logic.Nand {
		t.Error("lower-case nand not parsed")
	}
}

func TestRoundTrip(t *testing.T) {
	c, err := ParseString(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatalf("Write: %v", err)
	}
	c2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-Parse: %v\nsource:\n%s", err, buf.String())
	}
	if c2.N() != c.N() {
		t.Fatalf("round trip changed node count: %d -> %d", c.N(), c2.N())
	}
	for i := range c.Nodes {
		a, b := &c.Nodes[i], c2.Nodes[i]
		if a.Name != b.Name || a.Kind != b.Kind || len(a.Fanin) != len(b.Fanin) || a.IsPO != b.IsPO {
			t.Fatalf("node %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Fanin {
			if c.NameOf(a.Fanin[j]) != c2.NameOf(b.Fanin[j]) {
				t.Fatalf("node %s fanin %d differs", a.Name, j)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string // expected substring of the error
	}{
		{"undefined", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", "undefined signal"},
		{"duplicate", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(a)\n", "more than once"},
		{"dup-input", "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n", "more than once"},
		{"badgate", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "unknown gate"},
		{"malformed", "INPUT(a)\nOUTPUT(y)\ny = AND(a", "malformed"},
		{"empty-args", "INPUT(a)\nOUTPUT(y)\ny = AND()\n", "empty argument"},
		{"input-arity", "INPUT(a, b)\n", "exactly one"},
		{"not-arity", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n", "2 inputs"},
		{"junk", "INPUT(a)\nwat\n", "malformed"},
		{"empty", "  \n# only a comment\n", "empty netlist"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("error %q does not contain %q", err, c.frag)
			}
		})
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := ParseString("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), ":3:") {
		t.Errorf("formatted error %q lacks line number", pe.Error())
	}
}

func TestImplicitInputs(t *testing.T) {
	src := "OUTPUT(y)\ny = AND(a, b)\n"
	if _, err := ParseString(src); err == nil {
		t.Fatal("undeclared signals accepted without option")
	}
	c, err := ParseWithOptions(strings.NewReader(src), Options{ImplicitInputs: true})
	if err != nil {
		t.Fatalf("ImplicitInputs parse: %v", err)
	}
	if len(c.PIs) != 2 {
		t.Fatalf("implicit inputs: %d PIs", len(c.PIs))
	}
}

func TestOutputOfUndeclaredSignal(t *testing.T) {
	// OUTPUT referencing a never-defined signal is an error by default.
	src := "INPUT(a)\nOUTPUT(ghost)\nx = NOT(a)\n"
	if _, err := ParseString(src); err == nil {
		t.Fatal("OUTPUT of undefined signal accepted")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "# header\n\nINPUT(a) # trailing comment\n\n# mid\nOUTPUT(y)\ny = BUFF(a)\n"
	c, err := ParseString(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Node(c.ByName("y")).Kind != logic.Buf {
		t.Error("BUFF not parsed")
	}
}

func TestParseDFFChain(t *testing.T) {
	// Two FFs in a row plus a purely sequential cycle (legal).
	src := `
INPUT(a)
OUTPUT(q1)
q0 = DFF(d0)
q1 = DFF(q0)
d0 = XOR(a, q1)
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(c.FFs) != 2 {
		t.Fatalf("FFs = %d", len(c.FFs))
	}
	// d0 must be an observation point (feeds q0's D); q0 feeds q1's D.
	if !c.IsObserved(c.ByName("d0")) {
		t.Error("d0 should be observed")
	}
	if !c.IsObserved(c.ByName("q0")) {
		t.Error("q0 should be observed (feeds q1)")
	}
}

// TestWriteTieCellsRoundTrip: a circuit whose tie cells mask gates (an AND
// with a CONST0 fanin, the only path of input d; an OR with a CONST1 fanin, constants feeding XOR and
// a flip-flop's cone) goes through Write and Parse and must come back with
// the same node kinds and fanins and bitwise the same epp-batch
// P_sensitized at every node.
func TestWriteTieCellsRoundTrip(t *testing.T) {
	b := netlist.NewBuilder("ties")
	a, bb, c, d := b.Input("a"), b.Input("b"), b.Input("c"), b.Input("d")
	zero, one := b.Const("zero", false), b.Const("one", true)
	masked := b.And("masked", d, zero)
	forced := b.Or("forced", bb, one)
	n := b.Nand("n", a, bb)
	x := b.Xor("x", n, one)
	y1 := b.Or("y1", masked, n)
	y2 := b.And("y2", forced, x, c)
	q := b.DFF("q", y1)
	y3 := b.Nor("y3", q, zero)
	for _, id := range []netlist.ID{y1, y2, y3} {
		b.MarkOutput(id)
	}
	orig, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for _, line := range []string{"zero = CONST0()", "one = CONST1()"} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("emitted netlist lacks %q:\n%s", line, buf.String())
		}
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("emitted netlist does not parse: %v\n%s", err, buf.String())
	}
	if back.N() != orig.N() {
		t.Fatalf("round trip has %d nodes, want %d", back.N(), orig.N())
	}
	want, got := eppBatch(t, orig), eppBatch(t, back)
	for id := range orig.Nodes {
		o := &orig.Nodes[id]
		r := &back.Nodes[back.ByName(o.Name)]
		if r.Kind != o.Kind || r.IsPO != o.IsPO || len(r.Fanin) != len(o.Fanin) {
			t.Fatalf("node %s: kind %v po %v fanin %d, want %v %v %d", o.Name, r.Kind, r.IsPO, len(r.Fanin), o.Kind, o.IsPO, len(o.Fanin))
		}
		for j, f := range o.Fanin {
			if back.NameOf(r.Fanin[j]) != orig.NameOf(f) {
				t.Fatalf("node %s fanin %d is %s, want %s", o.Name, j, back.NameOf(r.Fanin[j]), orig.NameOf(f))
			}
		}
		if g, w := got[r.ID], want[id]; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("node %s: epp-batch P_sensitized %v after the round trip, %v before", o.Name, g, w)
		}
	}
	if want[d] != 0 || want[a] == 0 {
		t.Errorf("P_sensitized(d) = %v, P_sensitized(a) = %v: the CONST0 does not mask d alone", want[d], want[a])
	}
}

// eppBatch returns the epp-batch P_sensitized of every node of c under
// topological signal probabilities.
func eppBatch(t *testing.T, c *netlist.Circuit) []float64 {
	t.Helper()
	eng, err := engine.Lookup("epp-batch")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, c.N())
	req := &engine.Request{Circuit: c, SP: sigprob.Topological(c, sigprob.Config{}), Workers: 1}
	if err := eng.PSensitizedAll(context.Background(), req, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestValidName(t *testing.T) {
	good := []string{"G0", "a_b", "n[3]", "x.y", "123", "a-b"}
	bad := []string{"", "a b", "a,b", "a(b", "a)b", "a=b", "a#b"}
	for _, s := range good {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range bad {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
}
