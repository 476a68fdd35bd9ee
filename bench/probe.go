package main

// The reference probe. Other tenants share this host's cores, caches and
// memory, and its speed drifts by a fifth or more within minutes; every
// workload slows with it. So each timed set-up and sample is paired with a
// fixed reference kernel, run just before and just after it, and a timing
// is reported as its wall time scaled by refNominal over the reference
// time around it: seconds at the speed the host had when refNominal was
// taken. The kernel is this directory's code alone, so no change to the
// program moves it, and a change that makes the program faster shows in
// full.

import (
	"sync"
	"time"
)

// refNominal is the reference kernel's median time on the host in
// README.md's baseline, over 442 probes spread across 30 minutes.
const refNominal = 0.1668

// refProbe holds the reference kernel's buffers, allocated once per run so
// a probe allocates nothing.
type refProbe struct {
	vals []float64 // streamed
	next []int32   // dependent loads follow next[i] from one index to the next
}

// refWords is the length of both buffers: 64 MiB of float64s and 32 MiB of
// int32s, more than either core's L2.
const refWords = 8 << 20

func newRefProbe() *refProbe {
	p := &refProbe{vals: make([]float64, refWords), next: make([]int32, refWords)}
	x := uint32(12345)
	for i := range p.next {
		x = x*1664525 + 1013904223 // a fixed LCG, so every run chases the same indices
		p.next[i] = int32(x % refWords)
		p.vals[i] = float64(i)
	}
	return p
}

// refSink keeps the kernel's results live.
var refSink [2]float64

// time runs the reference kernel and returns its wall time in seconds. The
// kernel is three parts, each on one goroutine and then on two at once: an
// FMA chain in registers, a sum streamed over vals, and 2^18 dependent
// loads at scattered indices of next. Together they track how much of the
// host's cores, caches and memory this process gets.
func (p *refProbe) time() float64 {
	t0 := time.Now()
	for _, workers := range []int{1, 2} {
		p.spread(workers, p.compute)
		p.spread(workers, p.stream)
		p.spread(workers, p.chase)
	}
	return time.Since(t0).Seconds()
}

// spread runs part on the given number of goroutines and waits for them.
func (p *refProbe) spread(workers int, part func(w int)) {
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part(w)
		}()
	}
	wg.Wait()
}

func (p *refProbe) compute(w int) {
	var a [8]float64
	for i := range a {
		a[i] = float64(i) * 1e-3
	}
	for range 1_000_000 {
		for i := range a {
			a[i] = a[i]*0.999999 + 1e-7
		}
	}
	refSink[w] += a[0]
}

func (p *refProbe) stream(w int) {
	var s float64
	for _, v := range p.vals {
		s += v
	}
	refSink[w] += s
}

func (p *refProbe) chase(w int) {
	j := int32(w * 7919)
	for range 1 << 18 {
		j = p.next[j]
	}
	refSink[w] += float64(j)
}
