// .bench serialization: Write emits a Circuit in the ISCAS'85/'89 netlist
// format accepted by Parse, so circuits round-trip through the parser.

package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Write emits the circuit in .bench format: a header comment, INPUT and
// OUTPUT declarations, then one assignment per flip-flop, gate and tie cell
// in node order, a tie cell as "z = CONST0()" or "z = CONST1()". The output
// round-trips through Parse to an isomorphic circuit.
func Write(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	s := c.Stats()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d D-type flipflops, %d gates\n",
		s.PIs, s.POs, s.FFs, s.Gates)
	for _, id := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.NameOf(id))
	}
	for _, id := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.NameOf(id))
	}
	fmt.Fprintln(bw)
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Kind == logic.Input {
			continue
		}
		fmt.Fprintf(bw, "%s = %s(", n.Name, n.Kind)
		for j, f := range n.Fanin {
			if j > 0 {
				bw.WriteString(", ")
			}
			bw.WriteString(c.NameOf(f))
		}
		bw.WriteString(")\n")
	}
	return bw.Flush()
}

// WriteFile writes the circuit to the file at path in .bench format.
func WriteFile(path string, c *netlist.Circuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
