package sim

// The oracle of the analytical model: a small discrete-event machine that
// simulates warps on one streaming multiprocessor cycle by cycle — a
// tensor pipe with a fixed issue interval, a memory channel with bandwidth
// and latency — and measures the achieved time of a simple kernel
// directly. The model's central claim, that time converges to max(compute
// time, memory time) with a latency-and-overlap correction, is validated
// against this machine in TestAnalyticalModelAgrees rather than assumed.

import (
	"fmt"
	"math"
	"testing"
)

// machine describes the simulated SM and memory channel.
type machine struct {
	Warps            int     // resident warps (latency hiding depth)
	MMAIssueInterval int     // cycles between MMA issues per SM (pipe reciprocal throughput)
	MemLatency       int     // cycles from request to data
	BytesPerCycle    float64 // memory channel bandwidth
}

// kernel describes per-warp work: iterations of {load, then compute}.
type kernel struct {
	Iterations   int     // load/compute rounds per warp
	MMAsPerIter  int     // MMA instructions per round
	BytesPerIter float64 // bytes loaded per round
}

// machineResult reports the simulated execution.
type machineResult struct {
	Cycles      int
	MMAIssued   int
	BytesMoved  float64
	PipeBusyPct float64 // fraction of cycles the MMA pipe issued
	MemBusyPct  float64 // fraction of cycles the channel transferred
}

// warpState tracks one warp's progress.
type warpState struct {
	iterLeft  int
	mmaLeft   int
	readyAt   int // cycle at which the warp's outstanding load completes
	loadState int // 0 = must issue load, 1 = waiting, 2 = computing
}

// simulate executes the kernel on the machine cycle by cycle and returns
// the measured result. It returns an error for non-positive configurations.
func simulate(m machine, k kernel) (machineResult, error) {
	if m.Warps < 1 || m.MMAIssueInterval < 1 || m.MemLatency < 0 || m.BytesPerCycle <= 0 {
		return machineResult{}, fmt.Errorf("machine: invalid machine %+v", m)
	}
	if k.Iterations < 0 || k.MMAsPerIter < 0 || k.BytesPerIter < 0 {
		return machineResult{}, fmt.Errorf("machine: invalid kernel %+v", k)
	}

	warps := make([]warpState, m.Warps)
	for i := range warps {
		warps[i] = warpState{iterLeft: k.Iterations}
	}

	var res machineResult
	pipeFreeAt := 0      // next cycle the MMA pipe can issue
	var memQueue float64 // bytes queued on the channel
	memBusyCycles := 0
	pipeBusyCycles := 0

	const maxCycles = 1 << 30
	for cycle := 0; cycle < maxCycles; cycle++ {
		// Memory channel drains bandwidth every cycle.
		if memQueue > 0 {
			drained := m.BytesPerCycle
			if drained > memQueue {
				drained = memQueue
			}
			memQueue -= drained
			res.BytesMoved += drained
			memBusyCycles++
		}

		done := true
		issued := false
		for w := range warps {
			ws := &warps[w]
			if ws.iterLeft == 0 && ws.mmaLeft == 0 {
				continue
			}
			done = false
			switch ws.loadState {
			case 0: // issue the load for this iteration
				// Completion waits for latency plus the queue ahead.
				queueCycles := int(memQueue / m.BytesPerCycle)
				ws.readyAt = cycle + m.MemLatency + queueCycles
				memQueue += k.BytesPerIter
				ws.loadState = 1
			case 1: // waiting for data
				if cycle >= ws.readyAt {
					ws.loadState = 2
					ws.mmaLeft = k.MMAsPerIter
				}
			case 2: // computing: contend for the single MMA pipe
				if !issued && cycle >= pipeFreeAt && ws.mmaLeft > 0 {
					issued = true
					pipeFreeAt = cycle + m.MMAIssueInterval
					pipeBusyCycles += m.MMAIssueInterval
					ws.mmaLeft--
					res.MMAIssued++
					if ws.mmaLeft == 0 {
						ws.iterLeft--
						if ws.iterLeft > 0 {
							ws.loadState = 0
						}
					}
				}
			}
		}
		if done && memQueue == 0 {
			res.Cycles = cycle
			if cycle > 0 {
				res.PipeBusyPct = float64(pipeBusyCycles) / float64(cycle)
				res.MemBusyPct = float64(memBusyCycles) / float64(cycle)
				if res.PipeBusyPct > 1 {
					res.PipeBusyPct = 1
				}
			}
			return res, nil
		}
	}
	return res, fmt.Errorf("machine: kernel did not finish within %d cycles", maxCycles)
}

// analyticalCycles is Run's form of prediction for the same machine and
// kernel: the max of pipe time and memory time, plus one latency for the
// un-hidden first load.
func analyticalCycles(m machine, k kernel) float64 {
	totalMMAs := float64(m.Warps * k.Iterations * k.MMAsPerIter)
	totalBytes := float64(m.Warps*k.Iterations) * k.BytesPerIter
	pipe := totalMMAs * float64(m.MMAIssueInterval)
	mem := totalBytes / m.BytesPerCycle
	busy := pipe
	if mem > busy {
		busy = mem
	}
	return busy + float64(m.MemLatency)
}

func TestComputeBoundConvergesToPipeTime(t *testing.T) {
	m := machine{Warps: 16, MMAIssueInterval: 4, MemLatency: 200, BytesPerCycle: 1024}
	k := kernel{Iterations: 50, MMAsPerIter: 32, BytesPerIter: 256}
	res, err := simulate(m, k)
	if err != nil {
		t.Fatal(err)
	}
	want := analyticalCycles(m, k)
	rel := math.Abs(float64(res.Cycles)-want) / want
	if rel > 0.10 {
		t.Errorf("compute-bound: simulated %d cycles vs analytical %.0f (%.1f%% off)",
			res.Cycles, want, rel*100)
	}
	if res.PipeBusyPct < 0.85 {
		t.Errorf("pipe busy only %.0f%%, expected near saturation", res.PipeBusyPct*100)
	}
}

func TestMemoryBoundConvergesToChannelTime(t *testing.T) {
	m := machine{Warps: 16, MMAIssueInterval: 1, MemLatency: 200, BytesPerCycle: 64}
	k := kernel{Iterations: 50, MMAsPerIter: 2, BytesPerIter: 4096}
	res, err := simulate(m, k)
	if err != nil {
		t.Fatal(err)
	}
	want := analyticalCycles(m, k)
	rel := math.Abs(float64(res.Cycles)-want) / want
	if rel > 0.10 {
		t.Errorf("memory-bound: simulated %d vs analytical %.0f (%.1f%% off)",
			res.Cycles, want, rel*100)
	}
	if res.MemBusyPct < 0.85 {
		t.Errorf("channel busy only %.0f%%, expected near saturation", res.MemBusyPct*100)
	}
}

// TestAnalyticalModelAgrees sweeps the compute/memory balance and checks
// the max()-based analytical prediction tracks the discrete-event machine
// within 15% everywhere except the deeply latency-bound corner — the
// first-principles justification for package sim's structure.
func TestAnalyticalModelAgrees(t *testing.T) {
	m := machine{Warps: 24, MMAIssueInterval: 4, MemLatency: 300, BytesPerCycle: 256}
	for _, bytesPerIter := range []float64{64, 256, 1024, 4096, 16384} {
		k := kernel{Iterations: 40, MMAsPerIter: 16, BytesPerIter: bytesPerIter}
		res, err := simulate(m, k)
		if err != nil {
			t.Fatal(err)
		}
		want := analyticalCycles(m, k)
		rel := math.Abs(float64(res.Cycles)-want) / want
		if rel > 0.15 {
			t.Errorf("bytes/iter %v: simulated %d vs analytical %.0f (%.1f%% off)",
				bytesPerIter, res.Cycles, want, rel*100)
		}
	}
}

func TestFewWarpsAreLatencyBound(t *testing.T) {
	// With a single warp the machine cannot hide the memory latency: it
	// must run slower than the bandwidth/pipe bound — the regime package
	// sim covers with its sync/latency terms rather than the max() core.
	m := machine{Warps: 1, MMAIssueInterval: 4, MemLatency: 500, BytesPerCycle: 256}
	k := kernel{Iterations: 20, MMAsPerIter: 8, BytesPerIter: 512}
	res, err := simulate(m, k)
	if err != nil {
		t.Fatal(err)
	}
	// Serial lower bound: every iteration pays the full latency.
	minSerial := k.Iterations * m.MemLatency
	if res.Cycles < minSerial {
		t.Errorf("1-warp run finished in %d cycles, below the serial latency bound %d",
			res.Cycles, minSerial)
	}
	want := analyticalCycles(m, k)
	if float64(res.Cycles) < want {
		t.Errorf("latency-bound run (%d) should exceed the throughput prediction (%.0f)",
			res.Cycles, want)
	}
}

func TestMoreWarpsNeverSlower(t *testing.T) {
	k := kernel{Iterations: 30, MMAsPerIter: 8, BytesPerIter: 1024}
	prevPerWarp := math.Inf(1)
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		m := machine{Warps: w, MMAIssueInterval: 4, MemLatency: 300, BytesPerCycle: 128}
		res, err := simulate(m, k)
		if err != nil {
			t.Fatal(err)
		}
		perWarp := float64(res.Cycles) / float64(w)
		// Throughput per warp must not degrade as occupancy grows... until
		// a shared resource saturates, where per-warp time flattens to the
		// bandwidth share. Allow equality within 25%.
		if perWarp > prevPerWarp*1.25 {
			t.Errorf("warps=%d: per-warp cycles %v regressed from %v", w, perWarp, prevPerWarp)
		}
		if perWarp < prevPerWarp {
			prevPerWarp = perWarp
		}
	}
}

func TestWorkConservation(t *testing.T) {
	m := machine{Warps: 8, MMAIssueInterval: 2, MemLatency: 100, BytesPerCycle: 64}
	k := kernel{Iterations: 10, MMAsPerIter: 4, BytesPerIter: 128}
	res, err := simulate(m, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.MMAIssued != m.Warps*k.Iterations*k.MMAsPerIter {
		t.Errorf("issued %d MMAs, want %d", res.MMAIssued, m.Warps*k.Iterations*k.MMAsPerIter)
	}
	wantBytes := float64(m.Warps*k.Iterations) * k.BytesPerIter
	if math.Abs(res.BytesMoved-wantBytes) > 1e-6 {
		t.Errorf("moved %v bytes, want %v", res.BytesMoved, wantBytes)
	}
}

func TestMachineValidation(t *testing.T) {
	if _, err := simulate(machine{}, kernel{}); err == nil {
		t.Error("zero machine accepted")
	}
	if _, err := simulate(machine{Warps: 1, MMAIssueInterval: 1, BytesPerCycle: 1},
		kernel{Iterations: -1}); err == nil {
		t.Error("negative kernel accepted")
	}
	// Zero-work kernel terminates immediately.
	res, err := simulate(machine{Warps: 1, MMAIssueInterval: 1, BytesPerCycle: 1}, kernel{})
	if err != nil || res.Cycles != 0 {
		t.Errorf("empty kernel: %v cycles, err %v", res.Cycles, err)
	}
}
