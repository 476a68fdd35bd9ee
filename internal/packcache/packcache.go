// Package packcache held the process-wide packed-operand cache. GEMM and
// GEMV now pack their operands per call into pooled scratch; only the name
// of the retired bypass variable is left.
package packcache

// DisableEnv is retired: cubie ignores it; only bench/'s start guard names
// it.
const DisableEnv = "CUBIE_NO_PACKCACHE"
