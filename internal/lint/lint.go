// Package lint assembles serlint, the repo's determinism-contract checker:
// six analyzers over the mini framework in internal/lint/analysis, the
// //serlint:allow suppression directive, and the package-scope table that
// says where each analyzer is load-bearing.
//
// # The determinism contract
//
// Every acceptance property this reproduction advertises — byte-identical
// resumed Reports, bit-identical distributed folds, worker-count-invariant
// sweeps, seed-pinned Monte Carlo streams — reduces to a small set of
// coding invariants. serlint enforces them mechanically at `go vet` time:
//
//   - detrange: no result may depend on map iteration order. Result-producing
//     packages iterate sorted keys (or demonstrably collect-then-sort).
//   - detsource: kernels and fingerprint-relevant code take no entropy from
//     the environment — no time.Now/Since/Until, no global math/rand; all
//     randomness flows from an explicitly seeded, plumbed *rand.Rand.
//   - deferunlock: in sweep-driver and recovery paths, mu.Lock() is
//     immediately followed by defer mu.Unlock(), the ordering that keeps a
//     panicking user callback from deadlocking the sweep (PR 6).
//   - atomiconly: a field accessed through sync/atomic anywhere is accessed
//     through sync/atomic everywhere — the lock-free cursor pattern tolerates
//     no mixed plain loads.
//   - ctxflow: internal code with a caller context in scope does not mint
//     context.Background()/TODO(), and exported funcs that accept a ctx use
//     it — dropped contexts break cancellation and deadline propagation.
//   - bitfloat: float64 results crossing a checkpoint or wire boundary
//     travel as IEEE-754 bit patterns (math.Float64bits as uint64), the
//     PR 6/7 convention that makes folds bit-exact by construction.
//
// # Suppressions
//
// A finding that is intentional is silenced in place with
//
//	//serlint:allow <analyzer> <reason>
//
// on the finding's line, the line above it, or in the doc comment of the
// enclosing top-level declaration (which covers the whole declaration).
// The reason is mandatory — a directive without one is itself a finding
// that cannot be suppressed — so every escape hatch stays auditable:
// `serlint -report lint-report.json ./...` dumps all directives in force.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/atomiconly"
	"repro/internal/lint/bitfloat"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/deferunlock"
	"repro/internal/lint/detrange"
	"repro/internal/lint/detsource"
)

// Analyzers returns the full serlint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomiconly.Analyzer,
		bitfloat.Analyzer,
		ctxflow.Analyzer,
		deferunlock.Analyzer,
		detrange.Analyzer,
		detsource.Analyzer,
	}
}

// Names returns the set of valid analyzer names for directive validation.
func Names() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// scopes maps each analyzer to the module-relative package paths where it
// is enforced. The sentinel "..." means every package of the module. The
// table is deliberately explicit rather than pattern-based: adding a new
// result-producing package to the repo should force a conscious decision
// here.
var scopes = map[string][]string{
	// Packages whose outputs are folded into Reports, checkpoints, or wire
	// frames: map-order leakage there breaks byte-identity. internal/graph
	// is here because its union cone fixes the sweep order of every engine.
	detrangeName: {
		"internal/core", "internal/simulate", "internal/engine",
		"internal/seq", "internal/serd", "internal/resume", "internal/sched",
		"internal/eco", "internal/graph",
	},
	// Kernel and fingerprint-relevant packages: results must be a pure
	// function of (circuit, options, seed). serd/table2 are deliberately
	// out of scope — wall-clock there is operational (latency, cadence,
	// breaker probes), and their result paths are guarded by detrange,
	// bitfloat, and the coordinator's placement-only fold.
	detsourceName: {
		"internal/core", "internal/simulate", "internal/engine",
		"internal/seq", "internal/logic", "internal/latch",
		"internal/sigprob", "internal/exact", "internal/bdd",
		"internal/bddsp", "internal/sched", "internal/netlist",
		"internal/graph", "internal/faults", "internal/ser",
		"internal/gen", "internal/harden", "internal/resume",
		"internal/eco",
	},
	// Sweep drivers and recovery paths where PR 6's panic isolation
	// depends on defer-unlock ordering.
	deferunlockName: {
		"internal/engine", "internal/simulate", "internal/serd",
		"internal/resume", "internal/circuitio", "internal/faultinject",
		"internal/chaos",
	},
	atomiconlyName: {"..."},
	ctxflowName:    {"..."},
	// Checkpoint and wire serialization paths standardized on IEEE-754
	// bit patterns in PR 6/7.
	bitfloatName: {"internal/resume", "internal/serd", "internal/circuitio", "internal/eco"},
}

const (
	detrangeName    = "detrange"
	detsourceName   = "detsource"
	deferunlockName = "deferunlock"
	atomiconlyName  = "atomiconly"
	ctxflowName     = "ctxflow"
	bitfloatName    = "bitfloat"
)

// Run executes every in-scope analyzer over one type-checked package and
// returns the surviving diagnostics: suppression directives applied,
// directive problems (missing reason, unknown analyzer) appended, sorted
// by position. Packages outside the module produce nothing.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, modulePath, importPath string) ([]analysis.Diagnostic, error) {
	if modulePath == "" || importPath == "" {
		return nil, nil
	}
	if importPath != modulePath && !strings.HasPrefix(importPath, modulePath+"/") {
		return nil, nil
	}
	var diags []analysis.Diagnostic
	for _, a := range Analyzers() {
		if !InScope(a.Name, modulePath, importPath) {
			continue
		}
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, importPath, err)
		}
		diags = append(diags, pass.Diagnostics()...)
	}
	kept, _ := Filter(fset, files, diags, Names())
	return kept, nil
}

// InScope reports whether the analyzer runs over the package with the
// given import path in the module modulePath. Packages outside the module
// (stdlib, other modules) are never in scope.
func InScope(analyzer, modulePath, importPath string) bool {
	if modulePath == "" || importPath == "" {
		return false
	}
	var rel string
	switch {
	case importPath == modulePath:
		rel = "."
	case strings.HasPrefix(importPath, modulePath+"/"):
		rel = importPath[len(modulePath)+1:]
	default:
		return false
	}
	for _, s := range scopes[analyzer] {
		if s == "..." || s == rel {
			return true
		}
	}
	return false
}
