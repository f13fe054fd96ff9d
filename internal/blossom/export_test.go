package blossom

// ColdSolver exposes the pre-warm-start oracle to the external test
// package, which drives it through the dense decoder adapter.
type ColdSolver = coldSolver
