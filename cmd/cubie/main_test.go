package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/cubie"
)

// capture runs f with os.Stdout redirected to a buffer.
func capture(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestCmdSpecs(t *testing.T) {
	out := capture(t, func() { mustRender(cubie.NewHarness(), "specs") })
	for _, want := range []string{"A100", "H200", "B200", "66.9", "40.0", "8.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("specs output missing %q", want)
		}
	}
}

func TestCmdQuadrants(t *testing.T) {
	out := capture(t, func() { mustRender(cubie.NewHarness(), "quadrants") })
	for _, want := range []string{"Quadrant 1", "Quadrant 4", "Scan", "SpGEMM", "partial"} {
		if !strings.Contains(out, want) {
			t.Errorf("quadrants output missing %q", want)
		}
	}
}

func TestCmdDwarfs(t *testing.T) {
	out := capture(t, func() { mustRender(cubie.NewHarness(), "dwarfs") })
	if !strings.Contains(out, "Sparse linear algebra") || !strings.Contains(out, "7 dwarfs") {
		t.Errorf("dwarfs output malformed:\n%s", out)
	}
}

func TestCmdObserve(t *testing.T) {
	out := capture(t, func() { mustRender(cubie.NewHarness(), "observe") })
	if !strings.Contains(out, "O9") || !strings.Contains(out, "Numerical Precision") {
		t.Error("observe output missing observations or Table 1")
	}
}

func TestCmdDatasets(t *testing.T) {
	out := capture(t, func() { mustRender(cubie.NewHarness(), "datasets") })
	for _, want := range []string{"mycielskian17", "conf5_4-8x8-10", "1916928", "100245742"} {
		if !strings.Contains(out, want) {
			t.Errorf("datasets output missing %q", want)
		}
	}
}

func TestCmdSuite(t *testing.T) {
	out := capture(t, func() { mustRender(cubie.NewHarness(), "suite") })
	for _, want := range []string{"GEMM", "PiC", "figure-7 repeats: 6000000"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %q", want)
		}
	}
}

func TestCmdAdvise(t *testing.T) {
	out := capture(t, func() { cmdAdvise(cubie.H200()) })
	if !strings.Contains(out, "FFT") || !strings.Contains(out, "false") {
		t.Error("advise output must reject FFT")
	}
	if !strings.Contains(out, "Observation 5") {
		t.Error("advise output missing redundancy reasoning")
	}
}

func TestCmdSpeedupSmall(t *testing.T) {
	h := cubie.NewHarness()
	out := capture(t, func() { cmdSpeedup(h, "cce-vs-tc") })
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "SpMV") {
		t.Error("speedup output malformed")
	}
}

// TestEnvLeaseTimeout: a well-formed CUBIE_LEASE_TIMEOUT sets the
// --lease-timeout default, and a malformed one — no unit, not positive,
// not a duration — is an error naming the variable instead of a silent
// fallback to the default.
func TestEnvLeaseTimeout(t *testing.T) {
	t.Setenv("CUBIE_LEASE_TIMEOUT", "90s")
	if d, err := envLeaseTimeout(); err != nil || d != 90*time.Second {
		t.Fatalf("90s: got %v, %v", d, err)
	}
	for _, v := range []string{"90", "-1m", "abc"} {
		t.Run(v, func(t *testing.T) {
			t.Setenv("CUBIE_LEASE_TIMEOUT", v)
			if _, err := envLeaseTimeout(); err == nil || !strings.Contains(err.Error(), "CUBIE_LEASE_TIMEOUT") {
				t.Fatalf("err = %v, want an error naming the variable", err)
			}
		})
	}
}
