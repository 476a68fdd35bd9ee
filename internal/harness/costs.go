// Code generated by TestCostTable from a traced cold `cubie all`; DO NOT EDIT.

// Regenerate with
//
//	go test ./internal/harness -run TestCostTable -cost-trace a.json,b.json,c.json
//
// (docs/PERFORMANCE.md, "One cost model in seconds").

package harness

// memoSecs is each memo's traced compute seconds.
var memoSecs = map[string]float64{
	"bfs-relabel":   0.673,
	"dasp-padding":  0.361,
	"graph-corpus":  0.368,
	"graph-reps":    0.0235,
	"matrix-corpus": 1.99,
	"matrix-reps":   0.0316,
	"table6":        0.0327,
}

// runSecs is each workload's mean traced seconds per run key of each kind.
var runSecs = map[string]runCost{
	"BFS":       {executes: 0.295, profiles: 0.0693, reference: 0},
	"FFT":       {executes: 0.11, profiles: 2.1e-05, reference: 0.567},
	"GEMM":      {executes: 0.0547, profiles: 1.1e-05, reference: 0.0624},
	"GEMV":      {executes: 0.0014, profiles: 1.13e-05, reference: 0.000661},
	"PiC":       {executes: 0.0268, profiles: 1.3e-05, reference: 0.00457},
	"Reduction": {executes: 0.0476, profiles: 2.02e-05, reference: 0.013},
	"Scan":      {executes: 0.0818, profiles: 9.64e-06, reference: 0.0137},
	"SpGEMM":    {executes: 0.0323, profiles: 0.037, reference: 0.058},
	"SpMV":      {executes: 0.0209, profiles: 0.0104, reference: 0.00111},
	"Stencil":   {executes: 0.082, profiles: 1.15e-05, reference: 0.0713},
}
