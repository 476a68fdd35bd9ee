package main

// The distributed-campaign subcommands. `cubie dist` is the coordinator:
// it enumerates a named plan's keys — run keys, and for plan "all" the
// memo keys of the Figure 10 feature matrices and dataset-level ablation
// arms — serves them over the work-queue API (docs/SERVE.md) on --addr,
// waits for `cubie work` processes on any host to drain them, and then
// renders the requested output entirely from its now-warm cache,
// byte-identical to the single-process path (same renderers,
// deterministic results, zero executions and zero memo computations).
// `cubie work` is the worker loop: lease a key from the coordinator,
// execute it through the local harness, publish the result to the
// coordinator's cache store (the runcache remote tier), complete the
// lease, repeat until the coordinator says done.

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/cubie"
	"repro/internal/harness"
	"repro/internal/runcache"
	"repro/internal/server"
	"repro/internal/server/client"
)

// workPollDelay paces a worker's re-poll when everything pending is
// leased out; workErrBudget bounds consecutive coordinator failures (each
// leasing attempt already rides the client's retry policy) before the
// worker gives up — a vanished coordinator must not leave zombies.
const (
	workPollDelay = 100 * time.Millisecond
	workErrBudget = 20
)

// cmdWork runs the worker loop against a coordinator. The harness h
// already has the remote tier attached (main wires CUBIE_REMOTE_CACHE to
// the coordinator before constructing it), so every ExecuteKey — a run or
// a memo — first consults the local cache, then the coordinator's store,
// and publishes what it had to execute or compute.
func cmdWork(h *cubie.Harness, coordinator, workerID string) {
	if coordinator == "" {
		fatal(fmt.Errorf("work: --coordinator (or CUBIE_COORDINATOR) is required"))
	}
	if workerID == "" {
		host, _ := os.Hostname()
		workerID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	cl := client.New(coordinator)
	errs := 0
	for {
		g, err := cl.LeaseWork(workerID)
		if err != nil {
			errs++
			if errs >= workErrBudget {
				fatal(fmt.Errorf("work: coordinator unreachable: %w", err))
			}
			time.Sleep(workPollDelay)
			continue
		}
		errs = 0
		switch g.Status {
		case "wait":
			time.Sleep(workPollDelay)
		case "done":
			return
		case "failed":
			fatal(fmt.Errorf("work: campaign failed: %s", g.Error))
		case "ok":
			k := harness.RunKey{
				Workload: g.Key.Workload,
				Case:     g.Key.Case,
				Variant:  cubie.Variant(g.Key.Variant),
			}
			runErr := h.ExecuteKey(k)
			msg := ""
			if runErr != nil {
				msg = runErr.Error()
				fmt.Fprintf(os.Stderr, "cubie work %s: %v\n", workerID, runErr)
			}
			if _, err := cl.CompleteWork(g.Lease, msg); err != nil {
				// A lost completion is safe: the lease expires and the key
				// is re-issued (the re-execution republishes identical
				// bytes). Count it against the error budget and move on.
				errs++
			}
		default:
			fatal(fmt.Errorf("work: coordinator sent unknown lease state %q", g.Status))
		}
	}
}

// distFlags carries the coordinator-side CLI flags.
type distFlags struct {
	plan         string
	figure       string
	addr         string
	addrFile     string
	leaseTimeout time.Duration
}

// dismissTimeout bounds how long a drained coordinator keeps serving so
// that every worker that polled it is answered done and exits on its own.
const dismissTimeout = 15 * time.Second

// cmdDist coordinates one distributed campaign, then renders.
func cmdDist(h *cubie.Harness, f distFlags) {
	// The coordinator's cache is the shared store every worker publishes
	// to and renders are assembled from; a cacheless run (CUBIE_CACHE=off)
	// gets an ephemeral one.
	if h.RunCache() == nil {
		dir, err := os.MkdirTemp("", "cubie-dist-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		c, err := runcache.Open(dir)
		if err != nil {
			fatal(err)
		}
		h.AttachCache(c)
	}

	keys, err := h.PlanByName(f.plan)
	if err != nil {
		fatal(err)
	}
	// Enqueue every key, even locally satisfied ones: workers answer warm
	// keys from the shared store in milliseconds, and a full enumeration
	// is what lets a fresh worker prove a zero-execution warm start.
	q, err := h.NewWorkQueue(keys, f.leaseTimeout)
	if err != nil {
		fatal(err)
	}

	cfg := server.Defaults()
	cfg.Addr, cfg.AddrFile = f.addr, f.addrFile
	s, err := server.New(h, cfg)
	if err != nil {
		fatal(err)
	}
	s.SetWorkQueue(q)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		fatal(fmt.Errorf("dist: %w", err))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	fmt.Fprintf(os.Stderr, "cubie dist: plan %q (%d keys); start workers with: cubie work --coordinator http://%s\n",
		f.plan, q.Status().Total, ln.Addr())

	waitErr := make(chan error, 1)
	go func() { waitErr <- q.Wait(ctx) }()
	select {
	case err = <-waitErr:
	case err = <-serveDone:
		fatal(err)
	}
	// Keep serving until every worker that polled has been told the
	// outcome, so each one exits on its own answer.
	select {
	case <-q.Dismissed():
	case <-time.After(dismissTimeout):
	}
	cancel()
	<-serveDone
	if err != nil {
		fatal(fmt.Errorf("dist: %w", err))
	}

	// Assemble the output purely from the warmed cache.
	switch {
	case f.figure != "":
		if err := h.RenderFigure(os.Stdout, f.figure); err != nil {
			fatal(err)
		}
	case f.plan == "all":
		if err := h.RenderAll(os.Stdout); err != nil {
			fatal(err)
		}
	default:
		st := q.Status()
		fmt.Fprintf(os.Stderr, "cubie dist: plan %q complete (%d keys, %d lease re-issues)\n",
			f.plan, st.Completed, st.Reissued)
	}
}
