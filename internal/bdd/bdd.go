// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with hash-consing and a memoized if-then-else kernel. It is the exact
// symbolic substrate of the repository: Parker & McCluskey's signal
// probability (the paper's reference [5]) and exact error-propagation
// probabilities are weighted satisfying fractions of BDDs, which package
// bddsp builds from circuits. Unlike the enumeration engine (package exact),
// BDD size depends on circuit structure rather than input count, so exact
// answers remain reachable well past 24 inputs on many circuits.
//
// The implementation is deliberately classical: one node table with a
// (level, lo, hi) unique map, terminals False and True, a shared ITE cache,
// and an explicit node budget so pathological circuits fail with an error
// instead of exhausting memory.
package bdd

import (
	"errors"
	"fmt"
)

// Ref identifies a BDD node within its Manager. The terminals are False and
// True; all other refs are internal nodes.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// ErrNodeLimit is returned when an operation would exceed the Manager's
// node budget.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

type node struct {
	level int32 // variable index; terminals use a sentinel above all vars
	lo    Ref   // cofactor for var = 0
	hi    Ref   // cofactor for var = 1
}

type iteKey struct{ f, g, h Ref }

// Manager owns a universe of BDD nodes over a fixed variable count.
// Not safe for concurrent use.
type Manager struct {
	nvars    int32
	nodes    []node
	unique   map[node]Ref
	iteCache map[iteKey]Ref
	maxNodes int
}

// New returns a manager for nvars variables with the given node budget
// (0 means the default of 1<<22 nodes).
func New(nvars int, maxNodes int) *Manager {
	if maxNodes <= 0 {
		maxNodes = 1 << 22
	}
	m := &Manager{
		nvars:    int32(nvars),
		unique:   make(map[node]Ref),
		iteCache: make(map[iteKey]Ref),
		maxNodes: maxNodes,
	}
	// Terminals live at a level below all variables.
	m.nodes = append(m.nodes,
		node{level: int32(nvars), lo: False, hi: False}, // False
		node{level: int32(nvars), lo: True, hi: True},   // True
	)
	return m
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return int(m.nvars) }

// Size returns the number of live nodes (including terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) (Ref, error) {
	if i < 0 || int32(i) >= m.nvars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", i, m.nvars)
	}
	return m.mk(int32(i), False, True)
}

// Const returns the constant BDD for v.
func (m *Manager) Const(v bool) Ref {
	if v {
		return True
	}
	return False
}

// mk returns the canonical node (level, lo, hi), applying the reduction
// rule.
func (m *Manager) mk(level int32, lo, hi Ref) (Ref, error) {
	if lo == hi {
		return lo, nil
	}
	key := node{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[key]; ok {
		return r, nil
	}
	if len(m.nodes) >= m.maxNodes {
		return False, ErrNodeLimit
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, key)
	m.unique[key] = r
	return r, nil
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// Ite computes if-then-else(f, g, h) = f·g + f̅·h, the universal connective.
func (m *Manager) Ite(f, g, h Ref) (Ref, error) {
	// Terminal cases.
	switch {
	case f == True:
		return g, nil
	case f == False:
		return h, nil
	case g == h:
		return g, nil
	case g == True && h == False:
		return f, nil
	}
	key := iteKey{f, g, h}
	if r, ok := m.iteCache[key]; ok {
		return r, nil
	}
	// Split on the top variable.
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo, err := m.Ite(f0, g0, h0)
	if err != nil {
		return False, err
	}
	hi, err := m.Ite(f1, g1, h1)
	if err != nil {
		return False, err
	}
	r, err := m.mk(top, lo, hi)
	if err != nil {
		return False, err
	}
	m.iteCache[key] = r
	return r, nil
}

// cofactors returns the level-cofactors of r.
func (m *Manager) cofactors(r Ref, level int32) (lo, hi Ref) {
	n := &m.nodes[r]
	if n.level != level {
		return r, r
	}
	return n.lo, n.hi
}

// Not returns the complement of f.
func (m *Manager) Not(f Ref) (Ref, error) { return m.Ite(f, False, True) }

// And returns f·g.
func (m *Manager) And(f, g Ref) (Ref, error) { return m.Ite(f, g, False) }

// Or returns f+g.
func (m *Manager) Or(f, g Ref) (Ref, error) { return m.Ite(f, True, g) }

// Xor returns f⊕g.
func (m *Manager) Xor(f, g Ref) (Ref, error) {
	ng, err := m.Not(g)
	if err != nil {
		return False, err
	}
	return m.Ite(f, ng, g)
}

// AndN folds And over one or more operands.
func (m *Manager) AndN(fs ...Ref) (Ref, error) { return m.foldN(m.And, True, fs) }

// OrN folds Or over one or more operands.
func (m *Manager) OrN(fs ...Ref) (Ref, error) { return m.foldN(m.Or, False, fs) }

// XorN folds Xor over one or more operands.
func (m *Manager) XorN(fs ...Ref) (Ref, error) { return m.foldN(m.Xor, False, fs) }

func (m *Manager) foldN(op func(Ref, Ref) (Ref, error), unit Ref, fs []Ref) (Ref, error) {
	acc := unit
	if len(fs) > 0 {
		acc = fs[0]
		fs = fs[1:]
	}
	for _, f := range fs {
		var err error
		acc, err = op(acc, f)
		if err != nil {
			return False, err
		}
	}
	return acc, nil
}

// Eval evaluates f under the given variable assignment.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	for f != True && f != False {
		n := &m.nodes[f]
		if assignment[n.level] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// SatFraction returns the probability that f evaluates true when variable i
// is independently 1 with probability prob1[i]. With uniform probabilities
// (all 0.5) this is the satisfying fraction — Parker–McCluskey's exact
// signal probability when f is a net function over the primary inputs.
func (m *Manager) SatFraction(f Ref, prob1 []float64) float64 {
	if len(prob1) != int(m.nvars) {
		panic(fmt.Sprintf("bdd: SatFraction with %d probabilities for %d vars", len(prob1), m.nvars))
	}
	memo := make(map[Ref]float64)
	var rec func(Ref) float64
	rec = func(r Ref) float64 {
		switch r {
		case False:
			return 0
		case True:
			return 1
		}
		if v, ok := memo[r]; ok {
			return v
		}
		n := &m.nodes[r]
		p := prob1[n.level]
		// float64(...) rounds each product: no fused multiply-add.
		v := float64((1-p)*rec(n.lo)) + float64(p*rec(n.hi))
		memo[r] = v
		return v
	}
	return rec(f)
}

// NodeCount returns the number of nodes reachable from f (excluding
// terminals) — the conventional BDD size metric.
func (m *Manager) NodeCount(f Ref) int {
	seen := make(map[Ref]bool)
	var rec func(Ref)
	rec = func(r Ref) {
		if r == True || r == False || seen[r] {
			return
		}
		seen[r] = true
		rec(m.nodes[r].lo)
		rec(m.nodes[r].hi)
	}
	rec(f)
	return len(seen)
}
