package main

// serve-figures drives `cubie serve` on a warm run cache. Each first-pass
// sample launches a daemon and requests every `cubie all` figure once, in
// catalog order, from launch to the last response. The hot phase then keeps
// the last daemon and sends closed-loop keep-alive requests in a
// seed-shuffled order, which exercises the server and its in-memory figure
// layer; neither campaign touches them.

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/lcg"
)

// figureNames lists the catalog figures `cubie all` renders, in order.
func figureNames() []string {
	var names []string
	for _, f := range harness.Catalog() {
		if f.InAll {
			names = append(names, f.Name)
		}
	}
	return names
}

func (b *bench) measureServe() error {
	err := b.setUpWarm(func() error {
		p, ok := b.firstPass(figureNames(), nil, span{})
		if p.d != nil {
			p.d.stop()
		}
		if !ok {
			return fmt.Errorf("serve: warm-up first pass failed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	// First passes for three quarters of the budget, each on a new daemon;
	// the hot phase gets the rest, and at least a fifth, on the last one. A
	// daemon's peak RSS is read when its first pass ends, so every sample
	// measures the same work.
	start := time.Now()
	var last *daemon
	b.repeat(b.budget*3/4, func() (time.Duration, bool) {
		if last != nil {
			last.stop()
			last = nil
		}
		p, ok := b.firstPass(figureNames(), nil, span{})
		var rss float64
		if ok {
			var err error
			rss, err = p.d.peakRSS()
			ok = b.check(err)
		}
		if !ok {
			if p.d != nil {
				p.d.stop()
			}
			return 0, false
		}
		b.rssMB = append(b.rssMB, rss)
		last = p.d
		return p.total, true
	})
	if last == nil {
		return fmt.Errorf("serve: no first pass succeeded")
	}
	defer last.stop()
	b.hotPhase(last, figureNames(), max(b.budget-time.Since(start), b.budget/5))
	return nil
}

func (b *bench) tracedServe(tr *tracer, parent span) (time.Duration, error) {
	p, ok := b.firstPass(figureNames(), tr, parent)
	if p.d != nil {
		p.d.stop()
	}
	if !ok {
		return 0, fmt.Errorf("serve: traced first pass failed")
	}
	return p.total, nil
}

// pass is the timing of one first pass.
type pass struct {
	d     *daemon         // the daemon, still running; nil if it did not boot
	boot  time.Duration   // launch until the daemon wrote its address
	figs  []time.Duration // per requested figure
	total time.Duration   // launch until the last response
}

// firstPass launches a daemon on the filled cache and requests each named
// figure once, checking every body against its golden digest. Checked
// bodies are kept in b.bodies for the hot phase.
func (b *bench) firstPass(names []string, tr *tracer, parent span) (pass, bool) {
	b.attempted++
	boot := tr.begin(parent, "server", "boot")
	d, err := b.startDaemon(b.filled)
	p := pass{d: d, boot: boot.end()}
	if !b.check(err) {
		return p, false
	}
	ok := true
	bodies := map[string][]byte{}
	for _, name := range names {
		b.attempted++
		sp := tr.begin(parent, "server", "first "+name)
		body, err := d.figure(name)
		p.figs = append(p.figs, sp.end())
		if err == nil {
			err = b.golden.check(name, body)
		}
		if b.check(err) {
			bodies[name] = body
		} else {
			ok = false
		}
	}
	p.total = time.Since(boot.t0)
	if ok {
		b.bodies = bodies
	}
	return p, ok
}

// hotPhase runs the closed-loop hot phase against d for dur and records
// each request's latency in b.hot. One keep-alive connection requests the
// named figures in a seed-shuffled order, each request after the previous
// response: with the daemon on one core and this client on the other, the
// phase measures the server rather than the scheduler. Every response must
// equal the body the first pass checked; the phase stops at its first
// failed request.
func (b *bench) hotPhase(d *daemon, names []string, dur time.Duration) {
	order := lcg.New(b.seed).Perm(len(names))
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < dur && b.ctx.Err() == nil; i++ {
		name := names[order[i%len(order)]]
		b.attempted++
		s := time.Now()
		body, err := d.figure(name)
		l := time.Since(s)
		if err == nil && !bytes.Equal(body, b.bodies[name]) {
			err = fmt.Errorf("figure %s: hot response differs from the checked first response", name)
		}
		if !b.check(err) {
			break
		}
		b.hot = append(b.hot, float64(l.Nanoseconds())/1e6)
	}
	b.hotTime = time.Since(t0).Seconds()
}
