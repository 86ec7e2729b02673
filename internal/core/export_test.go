package core

// The bitwise comparisons of the batched engine against the scalar one,
// for the external-package fuzz target (fuzz_test.go), which also drives
// the engines built on this package.
var (
	DiffResult   = diffResult
	LiveMaskDiff = liveMaskDiff
)
