// Prob4 is the paper's four-valued probability state (Pa, Pā, P0, P1):
// the polarity-tracking error-propagation alphabet of the EPP method.

package logic

import (
	"fmt"
	"math"
)

// Sym is one of the four symbolic values an on-path signal can take during
// error propagation probability (EPP) analysis: the erroneous value with even
// polarity (A), with odd polarity (ABar), or a blocked constant (Zero, One).
//
// The polarity algebra is the paper's key device: A denotes the *same*
// unknown erroneous Boolean value everywhere it appears within one analysis,
// so A AND ABar = 0, A XOR A = 0, A XOR ABar = 1, etc. Tracking it makes the
// single topological sweep exact at reconvergence gates up to the signal
// independence assumption.
type Sym uint8

const (
	SymA    Sym = iota // erroneous value, even number of inversions from the site
	SymABar            // erroneous value, odd number of inversions
	SymZero            // error blocked, signal is logic 0
	SymOne             // error blocked, signal is logic 1
	NumSyms
)

var symNames = [NumSyms]string{"a", "a̅", "0", "1"}

// String returns the paper's notation for the symbol: a, a̅, 0 or 1.
func (s Sym) String() string {
	if s < NumSyms {
		return symNames[s]
	}
	return fmt.Sprintf("Sym(%d)", uint8(s))
}

// Prob4 is the probability distribution of an on-path signal over the four
// symbols, indexed by Sym. For a well-formed on-path state the entries are
// non-negative and sum to 1. Off-path signals are represented with
// Pa = Pā = 0 and P1 = SP, P0 = 1−SP.
type Prob4 [NumSyms]float64

// FromSP returns the off-path (pure signal probability) state for a line with
// probability sp of holding logic 1.
func FromSP(sp float64) Prob4 {
	return Prob4{SymZero: 1 - sp, SymOne: sp}
}

// ErrorSite returns the state of the error site itself: the erroneous value
// is present with even polarity with certainty.
func ErrorSite() Prob4 { return Prob4{SymA: 1} }

// PA returns the probability of carrying the error with even polarity.
func (p Prob4) PA() float64 { return p[SymA] }

// PABar returns the probability of carrying the error with odd polarity.
func (p Prob4) PABar() float64 { return p[SymABar] }

// P0 returns the probability the error is blocked at logic 0.
func (p Prob4) P0() float64 { return p[SymZero] }

// P1 returns the probability the error is blocked at logic 1.
func (p Prob4) P1() float64 { return p[SymOne] }

// PErr returns Pa + Pā: the total probability that the erroneous value is
// visible on the signal with either polarity.
func (p Prob4) PErr() float64 { return p[SymA] + p[SymABar] }

// Sum returns the total mass (1 for a normalized state).
func (p Prob4) Sum() float64 {
	return p[SymA] + p[SymABar] + p[SymZero] + p[SymOne]
}

// Invert returns the state seen through an inverter: polarities and logic
// constants swap.
func (p Prob4) Invert() Prob4 {
	return Prob4{
		SymA:    p[SymABar],
		SymABar: p[SymA],
		SymZero: p[SymOne],
		SymOne:  p[SymZero],
	}
}

// Valid reports whether the state is a probability distribution: entries in
// [-eps, 1+eps] and total within eps of 1.
func (p Prob4) Valid(eps float64) bool {
	for _, v := range p {
		if v < -eps || v > 1+eps || math.IsNaN(v) {
			return false
		}
	}
	return math.Abs(p.Sum()-1) <= eps
}

// Clamp snaps tiny negative round-off to zero and renormalizes if the sum
// drifted from 1 by floating point error. It does not attempt to repair
// grossly invalid states.
func (p Prob4) Clamp() Prob4 {
	for i, v := range p {
		if v < 0 && v > -1e-12 {
			p[i] = 0
		}
	}
	if s := p.Sum(); s > 0 && math.Abs(s-1) > 1e-15 && math.Abs(s-1) < 1e-9 {
		inv := 1 / s
		for i := range p {
			p[i] *= inv
		}
	}
	return p
}

// String renders the state in the paper's additive notation, e.g.
// "0.042(a) + 0.392(a̅) + 0.168(0) + 0.398(1)". Zero terms are kept so the
// output is positionally stable for golden tests.
func (p Prob4) String() string {
	return fmt.Sprintf("%.3f(a) + %.3f(a̅) + %.3f(0) + %.3f(1)",
		p[SymA], p[SymABar], p[SymZero], p[SymOne])
}

// symEval computes the symbolic result of a 2-input gate core (And, Or, Xor,
// Buf is not meaningful here) over two symbols, honouring the shared-error
// correlation: A and ABar are complementary unknowns, so e.g. And(A, ABar)=0.
func symEval(k Kind, x, y Sym) Sym {
	switch k {
	case And:
		switch {
		case x == SymZero || y == SymZero:
			return SymZero
		case x == SymOne:
			return y
		case y == SymOne:
			return x
		case x == y: // a·a or a̅·a̅
			return x
		default: // a·a̅ = 0
			return SymZero
		}
	case Or:
		switch {
		case x == SymOne || y == SymOne:
			return SymOne
		case x == SymZero:
			return y
		case y == SymZero:
			return x
		case x == y:
			return x
		default: // a + a̅ = 1
			return SymOne
		}
	case Xor:
		// XOR truth over {a, a̅, 0, 1}: translate to GF(2) with a as unknown.
		// a⊕a=0, a⊕a̅=1, a⊕0=a, a⊕1=a̅, plus constants.
		xe, xc := symGF2(x) // value = xe·a ⊕ xc
		ye, yc := symGF2(y)
		return gf2Sym(xe != ye, xc != yc)
	}
	panic("logic: symEval on kind " + k.String())
}

// symGF2 expresses a symbol as e·a ⊕ c over GF(2).
func symGF2(s Sym) (e, c bool) {
	switch s {
	case SymA:
		return true, false
	case SymABar:
		return true, true
	case SymZero:
		return false, false
	default:
		return false, true
	}
}

// gf2Sym is the inverse of symGF2.
func gf2Sym(e, c bool) Sym {
	switch {
	case e && !c:
		return SymA
	case e && c:
		return SymABar
	case !e && !c:
		return SymZero
	default:
		return SymOne
	}
}

// Combine2 composes two independent on-path/off-path states through a
// two-input gate core (And, Or or Xor) by exhaustive 4×4 case enumeration.
// This is the generic construction from which the paper's closed-form
// Table 1 rules are a special case; both are implemented and cross-checked.
func Combine2(k Kind, x, y Prob4) Prob4 {
	var out Prob4
	for sx := Sym(0); sx < NumSyms; sx++ {
		px := x[sx]
		if px == 0 {
			continue
		}
		for sy := Sym(0); sy < NumSyms; sy++ {
			py := y[sy]
			if py == 0 {
				continue
			}
			out[symEval(k, sx, sy)] += float64(px * py) // rounded: no fused multiply-add
		}
	}
	return out
}

// CombineN folds n >= 1 independent input states through an n-ary gate of
// kind k (any combinational kind). Inverting kinds apply the final inversion
// after folding their non-inverting core.
func CombineN(k Kind, ins []Prob4) Prob4 {
	if len(ins) == 0 {
		switch k {
		case Const0:
			return FromSP(0)
		case Const1:
			return FromSP(1)
		}
		panic("logic: CombineN with no inputs for kind " + k.String())
	}
	core := DeInvert(k)
	acc := ins[0]
	if core != Buf {
		for _, in := range ins[1:] {
			acc = Combine2(core, acc, in)
		}
	}
	if OutputInversion(k) {
		acc = acc.Invert()
	}
	return acc.Clamp()
}
