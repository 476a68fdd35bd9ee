// Code generated by TestCostTable from a traced cold `cubie all`; DO NOT EDIT.

// Regenerate with
//
//	go test ./internal/harness -run TestCostTable -cost-trace a.json,b.json,c.json
//
// (docs/PERFORMANCE.md, "One cost model in seconds").

package harness

// memoSecs is each memo's traced compute seconds.
var memoSecs = map[string]float64{
	"bfs-relabel":   0.547,
	"dasp-padding":  0.197,
	"graph-corpus":  0.337,
	"graph-reps":    0.0182,
	"matrix-corpus": 0.462,
	"matrix-reps":   0.0273,
	"table6":        0.0288,
}

// runSecs is each workload's mean traced seconds per run key of each kind.
var runSecs = map[string]runCost{
	"BFS":       {executes: 0.254, profiles: 0.0451, reference: 0},
	"FFT":       {executes: 0.111, profiles: 6.42e-06, reference: 0.485},
	"GEMM":      {executes: 0.033, profiles: 8.75e-06, reference: 0.0466},
	"GEMV":      {executes: 0.00214, profiles: 7.28e-06, reference: 0.000596},
	"PiC":       {executes: 0.0154, profiles: 7.7e-06, reference: 0.00405},
	"Reduction": {executes: 0.0335, profiles: 6.1e-06, reference: 0.0124},
	"Scan":      {executes: 0.0666, profiles: 1.02e-05, reference: 0.0147},
	"SpGEMM":    {executes: 0.086, profiles: 0.0205, reference: 0.0244},
	"SpMV":      {executes: 0.00302, profiles: 0.00984, reference: 0.0256},
	"Stencil":   {executes: 0.0798, profiles: 7.79e-06, reference: 0.0457},
}
