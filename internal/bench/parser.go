// Package bench reads and writes gate-level netlists in the ISCAS'85/'89
// .bench format, the lingua franca of the academic test/reliability
// community and the format the paper's benchmark circuits (s953 … s38417)
// are distributed in.
//
// The grammar accepted (case-insensitive keywords, '#' comments):
//
//	INPUT(name)
//	OUTPUT(name)
//	name = GATE(arg1, arg2, ...)     GATE ∈ AND OR NAND NOR NOT BUFF XOR XNOR DFF
//
// Forward references are allowed, as in the original benchmark files. The
// parser is hand written (no regexp) and reports errors with line numbers.
package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// ParseError describes a syntax or semantic error in a .bench source.
type ParseError struct {
	File string // file name if known, else "<input>"
	Line int    // 1-based line number
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Options control parsing behaviour.
type Options struct {
	// Name sets the circuit name. If empty, the file base name (without
	// extension) or "circuit" is used.
	Name string
	// ImplicitInputs, when true, treats references to undeclared signals as
	// primary inputs instead of failing. Some circulated benchmark variants
	// rely on this.
	ImplicitInputs bool
}

type stmt struct {
	line  int
	out   string
	kind  logic.Kind
	args  []string
	isIn  bool
	isOut bool
}

// ParseFile parses the .bench file at path.
func ParseFile(path string) (*netlist.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimSuffix(name, ".bench")
	return ParseWithOptions(f, Options{Name: name})
}

// Parse parses .bench source from r with default options.
func Parse(r io.Reader) (*netlist.Circuit, error) {
	return ParseWithOptions(r, Options{})
}

// ParseString parses .bench source held in a string.
func ParseString(src string) (*netlist.Circuit, error) {
	return Parse(strings.NewReader(src))
}

// ParseWithOptions parses .bench source from r.
func ParseWithOptions(r io.Reader, opt Options) (*netlist.Circuit, error) {
	file := "<input>"
	cname := opt.Name
	if cname == "" {
		cname = "circuit"
	}
	fail := func(line int, format string, args ...any) error {
		return &ParseError{File: file, Line: line, Msg: fmt.Sprintf(format, args...)}
	}

	var stmts []stmt
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		s, err := parseLine(line, lineNo, fail)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fail(lineNo, "empty netlist")
	}
	return assemble(cname, stmts, opt, fail)
}

// parseLine parses a single non-empty, comment-stripped line.
func parseLine(line string, no int, fail func(int, string, ...any) error) (stmt, error) {
	if eq := strings.IndexByte(line, '='); eq >= 0 {
		out := strings.TrimSpace(line[:eq])
		if out == "" || !validName(out) {
			return stmt{}, fail(no, "invalid signal name %q on left of '='", out)
		}
		rhs := strings.TrimSpace(line[eq+1:])
		op, args, err := parseCall(rhs, no, fail)
		if err != nil {
			return stmt{}, err
		}
		kind, ok := logic.ParseKind(op)
		if !ok || kind == logic.Input {
			return stmt{}, fail(no, "unknown gate type %q", op)
		}
		if len(args) == 0 && kind.MinFanin() > 0 {
			return stmt{}, fail(no, "empty argument list in %q", rhs)
		}
		if !kind.FaninOK(len(args)) {
			return stmt{}, fail(no, "%s gate %q with %d inputs", kind, out, len(args))
		}
		return stmt{line: no, out: out, kind: kind, args: args}, nil
	}
	op, args, err := parseCall(line, no, fail)
	if err != nil {
		return stmt{}, err
	}
	if len(args) != 1 {
		return stmt{}, fail(no, "%s declaration takes exactly one signal", op)
	}
	switch strings.ToUpper(op) {
	case "INPUT":
		return stmt{line: no, out: args[0], isIn: true}, nil
	case "OUTPUT":
		return stmt{line: no, out: args[0], isOut: true}, nil
	}
	return stmt{}, fail(no, "expected INPUT(...), OUTPUT(...) or assignment, got %q", line)
}

// parseCall parses "OP(a, b, c)"; "OP()", a tie cell's form, has no args.
func parseCall(s string, no int, fail func(int, string, ...any) error) (op string, args []string, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fail(no, "malformed expression %q", s)
	}
	op = strings.TrimSpace(s[:open])
	if op == "" {
		return "", nil, fail(no, "missing operator in %q", s)
	}
	inner := s[open+1 : len(s)-1]
	if strings.TrimSpace(inner) == "" {
		return op, nil, nil
	}
	for _, part := range strings.Split(inner, ",") {
		a := strings.TrimSpace(part)
		if a == "" || !validName(a) {
			return "", nil, fail(no, "invalid signal name %q in %q", a, s)
		}
		args = append(args, a)
	}
	return op, args, nil
}

// validName reports whether s is a legal .bench signal name: any run of
// characters excluding whitespace, parens, commas, '=' and '#'.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '(' || c == ')' || c == ',' || c == '=' || c == '#':
			return false
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			return false
		}
	}
	return true
}

// assemble resolves names (forward references allowed) and constructs the
// immutable circuit. Every statement but an OUTPUT declaration defines one
// node, so nodes and ids are sized for len(stmts) up front; only implicit
// inputs can grow them.
func assemble(cname string, stmts []stmt, opt Options, fail func(int, string, ...any) error) (*netlist.Circuit, error) {
	ids := make(map[string]netlist.ID, len(stmts))
	nodes := make([]netlist.Node, 0, len(stmts))
	var pis, pos, ffs []netlist.ID

	define := func(name string, kind logic.Kind, line int) (netlist.ID, error) {
		if _, dup := ids[name]; dup {
			return 0, fail(line, "signal %q defined more than once", name)
		}
		id := netlist.ID(len(nodes))
		nodes = append(nodes, netlist.Node{ID: id, Name: name, Kind: kind})
		ids[name] = id
		return id, nil
	}

	// Pass 1: declare all defined signals (inputs and gate/DFF outputs).
	var outputs []stmt
	for _, s := range stmts {
		switch {
		case s.isIn:
			id, err := define(s.out, logic.Input, s.line)
			if err != nil {
				return nil, err
			}
			pis = append(pis, id)
		case s.isOut:
			outputs = append(outputs, s)
		default:
			id, err := define(s.out, s.kind, s.line)
			if err != nil {
				return nil, err
			}
			if s.kind == logic.DFF {
				ffs = append(ffs, id)
			}
		}
	}

	// Pass 2: resolve fanin references.
	resolve := func(name string, line int) (netlist.ID, error) {
		if id, ok := ids[name]; ok {
			return id, nil
		}
		if opt.ImplicitInputs {
			id := netlist.ID(len(nodes))
			nodes = append(nodes, netlist.Node{ID: id, Name: name, Kind: logic.Input})
			ids[name] = id
			pis = append(pis, id)
			return id, nil
		}
		return 0, fail(line, "undefined signal %q", name)
	}
	for _, s := range stmts {
		if s.isIn || s.isOut {
			continue
		}
		id := ids[s.out]
		fanin := make([]netlist.ID, len(s.args))
		for i, a := range s.args {
			f, err := resolve(a, s.line)
			if err != nil {
				return nil, err
			}
			fanin[i] = f
		}
		nodes[id].Fanin = fanin
	}

	// Pass 3: mark outputs.
	for _, s := range outputs {
		id, ok := ids[s.out]
		if !ok {
			var err error
			id, err = resolve(s.out, s.line)
			if err != nil {
				return nil, err
			}
		}
		if !nodes[id].IsPO {
			nodes[id].IsPO = true
			pos = append(pos, id)
		}
	}

	return netlist.New(cname, nodes, pis, pos, ffs)
}
