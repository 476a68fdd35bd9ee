package harness

import (
	"strings"

	"repro/internal/runcache"
	"repro/internal/trace"
)

// memo returns the value stored in rc under (kind, key), or computes it,
// stores it and returns it. It serves the results that are pure functions
// of seeded datasets rather than workload runs (the Figure 10 feature
// matrices, the dataset-level ablation arms), so a cached value is
// bit-identical to a recomputed one. A computation runs inside a host span
// of category cat named by the key's first "|" field; with no cache
// attached the compute function just runs, inside its span.
func memo[T any](rc *runcache.Cache, kind, cat, key string, compute func() (T, error)) (T, error) {
	var v T
	if rc.Get(kind, key, &v) {
		return v, nil
	}
	name, _, _ := strings.Cut(key, "|")
	endSpan := trace.HostSpan(cat, name)
	v, err := compute()
	endSpan()
	if err != nil {
		return v, err
	}
	rc.Put(kind, key, v)
	return v, nil
}
