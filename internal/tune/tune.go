// Package tune held the per-host panel-geometry calibration behind
// `cubie tune`. The kernels now run one fixed geometry; only the name of
// the retired variable is left.
package tune

// EnvVar is retired: cubie ignores it; only bench/'s subprocess environment
// names it.
const EnvVar = "CUBIE_TUNED"
