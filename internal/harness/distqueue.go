package harness

// Distributed campaign execution: the coordinator-side work queue behind
// `cubie dist`, served to `cubie work` processes on any host. The
// coordinator enumerates a plan's keys (runs and memos) once, then serves
// them to workers over a lease/steal protocol (internal/server's
// /api/v1/work endpoints): a worker leases the next pending key in the
// executor's start order,
// executes it through its own harness, and publishes the result to the
// shared cache store before completing the lease. Work-stealing is
// implicit — whichever worker asks next gets the next key, so a fast
// worker drains what a slow one never claims.
//
// Fault model: leases expire. A worker that dies (or stalls) mid-key
// simply never completes its lease; after the lease timeout the key is
// re-issued to the next asker. Re-execution is always safe — every run
// and memo is deterministic and the cache is content-addressed, so a
// double execution publishes identical bytes. A completion for an expired
// (re-issued) lease is ignored as stale. Keys whose execution *fails* (the worker
// reports an error) are retried a bounded number of times before the
// whole queue fails; keys that expire too many times fail it too, so a
// plan wedged on a crashing key terminates instead of spinning.
//
// Shutdown: the queue records every worker that polls it, and Dismissed
// closes once the queue is terminal and each of them has been answered
// with that terminal state, so a coordinator that serves until then lets
// every worker exit on its own answer instead of a refused connection.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Distributed-queue metrics (see docs/OBSERVABILITY.md).
var (
	metDistLeases = metrics.NewCounter("cubie_dist_leases_total",
		"Work leases granted to distributed-campaign workers.")
	metDistReissued = metrics.NewCounter("cubie_dist_leases_reissued_total",
		"Leases that expired (worker death or stall) and whose key was returned to the queue.")
	metDistStale = metrics.NewCounter("cubie_dist_completions_stale_total",
		"Completions that arrived for an expired, re-issued lease and were ignored.")
	metDistCompleted = metrics.NewCounter("cubie_dist_keys_completed_total",
		"Run keys completed successfully by distributed-campaign workers.")
	metDistFailed = metrics.NewCounter("cubie_dist_key_failures_total",
		"Run-key executions reported failed by a worker (bounded retries before the queue fails).")
)

// Queue lifecycle / lease-grant states, as they appear on the wire.
const (
	LeaseGranted = "ok"     // a key was leased; execute it and complete the lease
	LeaseWait    = "wait"   // nothing pending right now (all keys leased); ask again
	LeaseDone    = "done"   // the plan completed; the worker should exit
	LeaseFailed  = "failed" // the plan failed; the worker should exit
)

// Retry bounds. maxKeyAttempts bounds *reported* execution failures per
// key; maxKeyReissues bounds lease expiries per key (a worker-killing key
// must not crash workers forever).
const (
	maxKeyAttempts = 3
	maxKeyReissues = 5
)

// DefaultLeaseTimeout is how long a worker may sit on a leased key before
// the coordinator assumes it died and re-issues the key. Generous on
// purpose: the longest single keys (CPU-serial references of the largest
// cases) run minutes on a loaded box, and a premature re-issue only wastes
// work, it never corrupts anything.
const DefaultLeaseTimeout = 5 * time.Minute

// distLease is one outstanding grant.
type distLease struct {
	item     planJob
	worker   string
	deadline time.Time
}

// Grant is one lease decision, as returned to a polling worker.
type Grant struct {
	State string // LeaseGranted, LeaseWait, LeaseDone, LeaseFailed
	Key   RunKey // set when State == LeaseGranted
	Lease string // opaque lease id; echo it back on completion
	Err   string // set when State == LeaseFailed
}

// QueueStatus is a point-in-time snapshot (GET /api/v1/work).
type QueueStatus struct {
	State     string // "running", "done", "failed"
	Total     int
	Completed int
	Pending   int
	Leased    int
	Reissued  int
	Err       string
}

// WorkQueue is the coordinator's lease/steal queue over one plan's keys.
// All methods are safe for concurrent use.
type WorkQueue struct {
	mu       sync.Mutex
	pending  []planJob // unleased keys, in Execute's start order (schedule)
	leases   map[string]*distLease
	attempts map[RunKey]int // reported execution failures per key
	reissues map[RunKey]int // expired leases per key
	total    int
	complete int
	reissued int
	seq      int
	state    string // "running", "done", "failed"
	err      error
	timeout  time.Duration
	done     chan struct{}

	workers   map[string]bool // every worker that has polled; true once answered terminal
	dismissed chan struct{}   // closed when terminal and every polled worker was answered

	now func() time.Time // test seam
}

// NewWorkQueue builds the queue for a key set: deduplicate, resolve each
// key — a run key against the suite, a memo key against the memo table
// (unknown keys are coordinator-side errors — a worker should never
// discover them) — and order the keys as Execute starts them (schedule):
// by rank, the costliest reader of what a job reads, then by cost, and
// the table6 memo, which reads runs, last. The queue leases only its own
// keys: the worker that computes a memo reads or runs its inputs itself,
// though they rank the keys as they do in Execute. A leaseTimeout of 0
// selects DefaultLeaseTimeout.
func (h *Harness) NewWorkQueue(keys []RunKey, leaseTimeout time.Duration) (*WorkQueue, error) {
	if leaseTimeout <= 0 {
		leaseTimeout = DefaultLeaseTimeout
	}
	jobs, err := h.schedule(keys)
	if err != nil {
		return nil, err
	}
	mine := map[RunKey]bool{}
	for _, k := range keys {
		mine[k] = true
	}
	var items []planJob
	for _, j := range jobs {
		if mine[j.key] {
			items = append(items, j)
		}
	}
	q := &WorkQueue{
		pending:  items,
		leases:   map[string]*distLease{},
		attempts: map[RunKey]int{},
		reissues: map[RunKey]int{},
		total:    len(items),
		state:    "running",
		timeout:  leaseTimeout,
		done:     make(chan struct{}),
		now:      time.Now,

		workers:   map[string]bool{},
		dismissed: make(chan struct{}),
	}
	if q.total == 0 {
		q.state = "done"
		close(q.done)
		q.dismissLocked()
	}
	return q, nil
}

// Lease grants the first pending key to worker, after sweeping expired
// leases back into the pending set. With nothing pending but leases
// outstanding it returns LeaseWait — the worker polls again; a stalled
// lease will expire into its hands.
func (q *WorkQueue) Lease(worker string) Grant {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked()
	q.workers[worker] = q.state != "running"
	q.dismissLocked()
	switch q.state {
	case "done":
		return Grant{State: LeaseDone}
	case "failed":
		return Grant{State: LeaseFailed, Err: q.err.Error()}
	}
	if len(q.pending) == 0 {
		return Grant{State: LeaseWait}
	}
	item := q.pending[0]
	q.pending = q.pending[1:]
	q.seq++
	id := fmt.Sprintf("l%d", q.seq)
	q.leases[id] = &distLease{item: item, worker: worker, deadline: q.now().Add(q.timeout)}
	metDistLeases.Inc()
	return Grant{State: LeaseGranted, Key: item.key, Lease: id}
}

// Complete reports a leased key's outcome ("" = success) and returns what
// happened: "ok", "requeued" (failed, will retry), "failed" (the queue
// gave up), or "stale" (the lease had already expired and been re-issued
// — the re-issued execution owns the key now; ignoring the straggler is
// safe because runs are deterministic and the store content-addressed).
func (q *WorkQueue) Complete(leaseID, errMsg string) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked()
	l, ok := q.leases[leaseID]
	if !ok {
		metDistStale.Inc()
		return "stale"
	}
	delete(q.leases, leaseID)
	if errMsg == "" {
		q.complete++
		metDistCompleted.Inc()
		if q.complete == q.total && q.state == "running" {
			q.state = "done"
			close(q.done)
			q.dismissLocked()
		}
		return "ok"
	}
	metDistFailed.Inc()
	q.attempts[l.item.key]++
	if q.attempts[l.item.key] >= maxKeyAttempts {
		q.failLocked(fmt.Errorf("dist: %s failed %d times, last: %s", l.item.key, maxKeyAttempts, errMsg))
		return "failed"
	}
	q.requeueLocked(l.item)
	return "requeued"
}

// sweepLocked returns expired leases to the pending set, failing the
// queue when one key has expired too many times.
func (q *WorkQueue) sweepLocked() {
	if q.state != "running" {
		return
	}
	now := q.now()
	for id, l := range q.leases {
		if !now.After(l.deadline) {
			continue
		}
		delete(q.leases, id)
		metDistReissued.Inc()
		q.reissued++
		q.reissues[l.item.key]++
		if q.reissues[l.item.key] > maxKeyReissues {
			q.failLocked(fmt.Errorf("dist: %s expired its lease %d times (workers keep dying on it); giving up",
				l.item.key, q.reissues[l.item.key]))
			return
		}
		q.requeueLocked(l.item)
	}
}

// requeueLocked re-inserts an item in start order.
func (q *WorkQueue) requeueLocked(item planJob) {
	i := sort.Search(len(q.pending), func(i int) bool { return !before(q.pending[i], item) })
	q.pending = append(q.pending, planJob{})
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = item
}

// failLocked moves the queue to its terminal failed state.
func (q *WorkQueue) failLocked(err error) {
	if q.state != "running" {
		return
	}
	q.state = "failed"
	q.err = err
	q.pending = nil
	close(q.done)
	q.dismissLocked()
}

// dismissLocked closes dismissed once the queue is terminal and every
// worker that polled it has been answered with the terminal state.
func (q *WorkQueue) dismissLocked() {
	if q.state == "running" || isClosed(q.dismissed) {
		return
	}
	for _, told := range q.workers {
		if !told {
			return
		}
	}
	close(q.dismissed)
}

// Dismissed is closed once the queue is terminal and every worker that
// has polled it has since been answered done or failed. A worker that
// polls for the first time after that is answered at once.
func (q *WorkQueue) Dismissed() <-chan struct{} { return q.dismissed }

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// Done reports whether the queue reached a terminal state.
func (q *WorkQueue) Done() bool { return isClosed(q.done) }

// Err returns the terminal error (nil while running or when done).
func (q *WorkQueue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Wait blocks until the queue reaches a terminal state or ctx is
// cancelled, ticking the expiry sweep while it waits — leases must expire
// even when no worker is polling (they all died).
func (q *WorkQueue) Wait(ctx context.Context) error {
	tick := time.NewTicker(q.sweepInterval())
	defer tick.Stop()
	for {
		select {
		case <-q.done:
			return q.Err()
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			q.mu.Lock()
			q.sweepLocked()
			q.mu.Unlock()
		}
	}
}

// sweepInterval paces Wait's expiry sweeps: a quarter of the lease
// timeout, clamped to [50ms, 10s].
func (q *WorkQueue) sweepInterval() time.Duration {
	d := q.timeout / 4
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	return d
}

// Status snapshots the queue.
func (q *WorkQueue) Status() QueueStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStatus{
		State:     q.state,
		Total:     q.total,
		Completed: q.complete,
		Pending:   len(q.pending),
		Leased:    len(q.leases),
		Reissued:  q.reissued,
	}
	if q.err != nil {
		st.Err = q.err.Error()
	}
	return st
}
