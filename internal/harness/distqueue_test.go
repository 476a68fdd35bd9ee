package harness

import (
	"context"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httputil"
	"repro/internal/runcache"
	"repro/internal/workload"
)

// queueClock is the test seam for lease expiry.
type queueClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *queueClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *queueClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestQueue(t *testing.T, keys []RunKey, timeout time.Duration) (*WorkQueue, *queueClock) {
	t.Helper()
	q, err := New().NewWorkQueue(keys, timeout)
	if err != nil {
		t.Fatal(err)
	}
	clk := &queueClock{now: time.Unix(1000, 0)}
	q.now = clk.Now
	return q, clk
}

func TestWorkQueueOrdersLongestFirst(t *testing.T) {
	h := New()
	w, err := h.Suite.ByName("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	small := w.Cases()[0].Name
	large := w.Cases()[len(w.Cases())-1].Name
	keys := []RunKey{
		{"GEMM", small, workload.TC},
		{"GEMM", large, RefVariant}, // est ×64: must lease first
		{"GEMM", large, workload.TC},
		{"GEMM", small, workload.TC}, // duplicate: dropped
	}
	q, err := h.NewWorkQueue(keys, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st := q.Status(); st.Total != 3 {
		t.Fatalf("total = %d, want 3 after dedup", st.Total)
	}
	want := []RunKey{
		{"GEMM", large, RefVariant},
		{"GEMM", large, workload.TC},
		{"GEMM", small, workload.TC},
	}
	for i, wk := range want {
		g := q.Lease("w1")
		if g.State != LeaseGranted || g.Key != wk {
			t.Fatalf("lease %d = %+v, want key %v", i, g, wk)
		}
	}
	if g := q.Lease("w1"); g.State != LeaseWait {
		t.Fatalf("exhausted queue must answer wait, got %+v", g)
	}
}

func TestWorkQueueRejectsUnknownKeys(t *testing.T) {
	_, err := New().NewWorkQueue([]RunKey{{"NoSuchKernel", "x", workload.TC}}, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "NoSuchKernel") {
		t.Fatalf("unknown workload must fail queue construction: %v", err)
	}
	for _, k := range []RunKey{
		{"coverage", "no-such-memo", MemoVariant},
		{"ablation", "graph-reps", MemoVariant},          // wrong category
		{"coverage", "graph-corpus|199", MemoVariant},    // missing seed
		{"coverage", "graph-corpus|0199|1", MemoVariant}, // non-canonical size
		{"GEMV", "graph-reps", MemoVariant},              // suite workload
	} {
		if _, err := New().NewWorkQueue([]RunKey{k}, time.Minute); err == nil || !strings.Contains(err.Error(), k.String()) {
			t.Errorf("unknown memo key %s must fail queue construction: %v", k, err)
		}
	}
}

// TestWorkQueueRandomInterleavings drives the queue over a plan mixing run
// and memo keys with random interleavings of lease, successful and failed
// completion, lease expiry and stale completion, then drains it. A model
// of the retry budgets predicts every Complete outcome. The queue must
// never grant a key that is completed or validly leased, never count a
// key twice, end failed only when the model says a budget ran out, and
// otherwise finish with every key completed exactly once.
func TestWorkQueueRandomInterleavings(t *testing.T) {
	h := New()
	w, _ := h.Suite.ByName("GEMV")
	keys := append([]RunKey{}, h.PlanCampaign()[:6]...)
	for _, c := range w.Cases()[:2] {
		keys = append(keys, RunKey{"GEMV", c.Name, workload.TC}, RunKey{"GEMV", c.Name, RefVariant})
	}
	const timeout = time.Minute
	drained, failed := 0, 0
	defer func() { t.Logf("%d interleavings drained, %d ran out of a retry budget", drained, failed) }()
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		q, clk := newTestQueue(t, keys, timeout)
		type held struct {
			id    string
			key   RunKey
			valid bool // not yet expired
		}
		var live []*held
		completed := map[RunKey]int{}
		reissues := map[RunKey]int{}
		attempts := map[RunKey]int{}
		budgetOut := false
		validLease := func(k RunKey) bool {
			for _, l := range live {
				if l.valid && l.key == k {
					return true
				}
			}
			return false
		}
		grant := func(g Grant) {
			if completed[g.Key] > 0 || validLease(g.Key) {
				t.Fatalf("seed %d: granted %s while completed or validly leased", seed, g.Key)
			}
			live = append(live, &held{id: g.Lease, key: g.Key, valid: true})
		}
		complete := func(i int, errMsg string) {
			l := live[i]
			live = append(live[:i], live[i+1:]...)
			got := q.Complete(l.id, errMsg)
			want := "stale"
			switch {
			case budgetOut:
				return // the queue fails on its next sweep; outcomes past that are moot
			case l.valid && errMsg == "":
				want = "ok"
				completed[l.key]++
			case l.valid:
				attempts[l.key]++
				want = "requeued"
				if attempts[l.key] >= maxKeyAttempts {
					want, budgetOut = "failed", true
				}
			}
			if got != want {
				t.Fatalf("seed %d: Complete(%s %s, %q) = %q, want %q", seed, l.id, l.key, errMsg, got, want)
			}
		}
		for step := 0; step < 80 && !q.Done(); step++ {
			switch r := rng.IntN(10); {
			case r < 4:
				if g := q.Lease("w"); g.State == LeaseGranted {
					grant(g)
				}
			case r < 7 && len(live) > 0:
				complete(rng.IntN(len(live)), "")
			case r < 8 && len(live) > 0:
				complete(rng.IntN(len(live)), "worker error")
			case r < 9:
				// Every valid lease expires; the next call sweeps it.
				clk.Advance(timeout + time.Second)
				for _, l := range live {
					if l.valid {
						l.valid = false
						reissues[l.key]++
						if reissues[l.key] > maxKeyReissues {
							budgetOut = true
						}
					}
				}
			}
		}
		// Drain: stale completions for what is still held, then lease and
		// complete until the queue is terminal. Each round completes or
		// fails one key, so a bounded loop catches a hang.
		for len(live) > 0 && !budgetOut {
			complete(0, "")
		}
		for i := 0; !q.Done(); i++ {
			if i > 4*len(keys) {
				t.Fatalf("seed %d: drain did not terminate: %+v", seed, q.Status())
			}
			switch g := q.Lease("drain"); g.State {
			case LeaseGranted:
				grant(g)
				complete(len(live)-1, "")
			case LeaseWait:
				t.Fatalf("seed %d: wait with no lease outstanding: %+v", seed, q.Status())
			}
		}
		st := q.Status()
		if budgetOut {
			if st.State != "failed" || q.Err() == nil {
				t.Fatalf("seed %d: a retry budget ran out but the queue ended %+v", seed, st)
			}
			failed++
			continue
		}
		if st.State != "done" || st.Completed != len(keys) || st.Pending != 0 || st.Leased != 0 {
			t.Fatalf("seed %d: drained status = %+v", seed, st)
		}
		for _, k := range keys {
			if completed[k] != 1 {
				t.Fatalf("seed %d: %s completed %d times, want 1", seed, k, completed[k])
			}
		}
		drained++
	}
}

func TestWorkQueueEmptyPlanIsDone(t *testing.T) {
	q, _ := newTestQueue(t, nil, time.Minute)
	if g := q.Lease("w1"); g.State != LeaseDone {
		t.Fatalf("empty plan must be done, got %+v", g)
	}
	if err := q.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestWorkQueueDrainsToDone(t *testing.T) {
	h := New()
	w, _ := h.Suite.ByName("GEMV")
	var keys []RunKey
	for _, c := range w.Cases() {
		for _, v := range w.Variants() {
			keys = append(keys, RunKey{"GEMV", c.Name, v})
		}
	}
	q, err := h.NewWorkQueue(keys, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Two "workers" race to drain the queue (no real execution — the queue
	// does not care what completing a lease cost).
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			for {
				g := q.Lease(worker)
				switch g.State {
				case LeaseGranted:
					q.Complete(g.Lease, "")
				case LeaseWait:
					time.Sleep(time.Millisecond)
				default:
					return
				}
			}
		}("w" + string(rune('1'+i)))
	}
	wg.Wait()
	if err := q.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := q.Status()
	if st.State != "done" || st.Completed != len(keys) || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("drained status = %+v", st)
	}
}

// TestWorkQueueReissuesOnWorkerDeath is the coordinator fault path: a
// worker leases a key and dies without completing; after the lease
// timeout the key is re-issued to a live worker and the campaign
// completes. The dead worker's late completion is ignored as stale.
func TestWorkQueueReissuesOnWorkerDeath(t *testing.T) {
	h := New()
	w, _ := h.Suite.ByName("GEMV")
	small := w.Cases()[0].Name
	keys := []RunKey{
		{"GEMV", small, workload.TC},
		{"GEMV", small, workload.Baseline},
	}
	q, err := h.NewWorkQueue(keys, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	clk := &queueClock{now: time.Unix(1000, 0)}
	q.now = clk.Now

	dead := q.Lease("dying-worker")
	if dead.State != LeaseGranted {
		t.Fatalf("first lease: %+v", dead)
	}
	// The worker dies. Its lease expires...
	clk.Advance(2 * time.Minute)

	// ...and the surviving worker receives the re-issued key along with
	// the rest of the plan.
	got := map[RunKey]bool{}
	for i := 0; i < len(keys); i++ {
		g := q.Lease("survivor")
		if g.State != LeaseGranted {
			t.Fatalf("survivor lease %d: %+v", i, g)
		}
		got[g.Key] = true
		if r := q.Complete(g.Lease, ""); r != "ok" {
			t.Fatalf("survivor complete: %q", r)
		}
	}
	for _, k := range keys {
		if !got[k] {
			t.Fatalf("key %v never re-issued to the survivor", k)
		}
	}
	if st := q.Status(); st.State != "done" || st.Reissued != 1 {
		t.Fatalf("status after recovery = %+v, want done with 1 reissue", st)
	}

	// The dead worker's completion arrives late: stale, and it must not
	// disturb the terminal state.
	if r := q.Complete(dead.Lease, ""); r != "stale" {
		t.Fatalf("late completion = %q, want stale", r)
	}
	if st := q.Status(); st.Completed != 2 {
		t.Fatalf("stale completion must not double-count: %+v", st)
	}
	if err := q.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestWorkQueueFailsAfterRepeatedExecutionFailures(t *testing.T) {
	h := New()
	w, _ := h.Suite.ByName("GEMV")
	keys := []RunKey{{"GEMV", w.Cases()[0].Name, workload.TC}}
	q, err := h.NewWorkQueue(keys, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= maxKeyAttempts; attempt++ {
		g := q.Lease("w1")
		if g.State != LeaseGranted {
			t.Fatalf("attempt %d lease: %+v", attempt, g)
		}
		r := q.Complete(g.Lease, "kernel exploded")
		if attempt < maxKeyAttempts && r != "requeued" {
			t.Fatalf("attempt %d = %q, want requeued", attempt, r)
		}
		if attempt == maxKeyAttempts && r != "failed" {
			t.Fatalf("final attempt = %q, want failed", r)
		}
	}
	if g := q.Lease("w2"); g.State != LeaseFailed || !strings.Contains(g.Err, "kernel exploded") {
		t.Fatalf("post-failure lease = %+v", g)
	}
	if err := q.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "kernel exploded") {
		t.Fatalf("Wait = %v, want the failure", err)
	}
}

func TestWorkQueueGivesUpOnLeaseThrasher(t *testing.T) {
	h := New()
	w, _ := h.Suite.ByName("GEMV")
	keys := []RunKey{{"GEMV", w.Cases()[0].Name, workload.TC}}
	q, err := h.NewWorkQueue(keys, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	clk := &queueClock{now: time.Unix(1000, 0)}
	q.now = clk.Now
	// A key that kills every worker that touches it: lease, expire, repeat.
	for i := 0; ; i++ {
		g := q.Lease("w1")
		if g.State == LeaseFailed {
			if !strings.Contains(g.Err, "expired its lease") {
				t.Fatalf("failure reason: %q", g.Err)
			}
			break
		}
		if g.State != LeaseGranted {
			t.Fatalf("iteration %d: %+v", i, g)
		}
		if i > maxKeyReissues+2 {
			t.Fatal("queue never gave up on the thrashing key")
		}
		clk.Advance(2 * time.Minute)
	}
}

func TestWorkQueueWaitHonorsContext(t *testing.T) {
	h := New()
	w, _ := h.Suite.ByName("GEMV")
	q, err := h.NewWorkQueue([]RunKey{{"GEMV", w.Cases()[0].Name, workload.TC}}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// --- ExecuteKey through the remote tier (the worker's data path) ---

// distStore is a minimal map-backed cache store (the daemon surface the
// remote tier speaks), with a corruption switch for the fault-path test.
type distStore struct {
	mu      sync.Mutex
	entries map[string][]byte
	mangle  bool // serve truncated bytes for every entry
}

func (s *distStore) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, runcache.RemotePathPrefix)
		s.mu.Lock()
		defer s.mu.Unlock()
		switch r.Method {
		case http.MethodGet:
			data, ok := s.entries[name]
			if !ok {
				http.Error(w, "no entry", http.StatusNotFound)
				return
			}
			if s.mangle {
				data = data[:len(data)/2]
			}
			_, _ = w.Write(data)
		case http.MethodPut:
			data, _ := io.ReadAll(r.Body)
			s.entries[name] = data
			w.WriteHeader(http.StatusNoContent)
		}
	})
}

func fastRemote(t *testing.T, url string) *runcache.Remote {
	t.Helper()
	return runcache.NewRemote(url).WithPolicy(httputil.Policy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    time.Millisecond,
		Sleep:       func(time.Duration) {},
	})
}

// TestExecuteKeyThroughSharedStore is the distributed data path end to
// end at the harness level: worker 1 executes and publishes; a fresh
// worker with an empty local cache completes the same key off the store
// executing nothing; a store serving corrupt bytes forces a third fresh
// worker to re-execute locally and re-publish a good entry.
func TestExecuteKeyThroughSharedStore(t *testing.T) {
	store := &distStore{entries: map[string][]byte{}}
	srv := httptest.NewServer(store.handler())
	defer srv.Close()

	newWorker := func() *Harness {
		rc, err := runcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return New().AttachCache(rc.AttachRemote(fastRemote(t, srv.URL)))
	}

	w1 := newWorker()
	wl, _ := w1.Suite.ByName("GEMV")
	key := RunKey{"GEMV", wl.Cases()[0].Name, workload.TC}

	started := metRunsStarted.Value()
	if err := w1.ExecuteKey(key); err != nil {
		t.Fatal(err)
	}
	if got := metRunsStarted.Value() - started; got != 1 {
		t.Fatalf("cold worker started %d runs, want 1", got)
	}
	store.mu.Lock()
	published := len(store.entries)
	store.mu.Unlock()
	if published != 1 {
		t.Fatalf("worker published %d entries, want 1", published)
	}

	// A fresh worker with an empty local cache warms entirely off the
	// peer store: zero executions.
	w2 := newWorker()
	started = metRunsStarted.Value()
	if err := w2.ExecuteKey(key); err != nil {
		t.Fatal(err)
	}
	if got := metRunsStarted.Value() - started; got != 0 {
		t.Fatalf("warm peer started %d runs, want 0", got)
	}

	// The store turns rotten: every GET serves truncated bytes. A third
	// fresh worker must silently miss, re-execute locally, and re-publish.
	store.mu.Lock()
	store.mangle = true
	before := map[string]int{}
	for name, data := range store.entries {
		before[name] = len(data)
	}
	store.mu.Unlock()

	w3 := newWorker()
	started = metRunsStarted.Value()
	if err := w3.ExecuteKey(key); err != nil {
		t.Fatalf("corrupt store must not fail the run: %v", err)
	}
	if got := metRunsStarted.Value() - started; got != 1 {
		t.Fatalf("worker facing a corrupt store started %d runs, want 1 (re-execute locally)", got)
	}
	store.mu.Lock()
	store.mangle = false
	repub := len(store.entries) == 1
	for name, data := range store.entries {
		if len(data) != before[name] {
			repub = false
		}
	}
	store.mu.Unlock()
	if !repub {
		t.Fatal("re-execution must re-publish the full entry to the store")
	}

	// With the store healed, a fourth fresh worker is warm again.
	w4 := newWorker()
	started = metRunsStarted.Value()
	if err := w4.ExecuteKey(key); err != nil {
		t.Fatal(err)
	}
	if got := metRunsStarted.Value() - started; got != 0 {
		t.Fatalf("post-heal peer started %d runs, want 0", got)
	}

	// A memo key takes the same path: the first worker computes and
	// publishes it, a fresh worker reads it off the store.
	memoKey := memoPlanKey("graph-reps")
	computed := metMemosComputed.Value()
	if err := w4.ExecuteKey(memoKey); err != nil {
		t.Fatal(err)
	}
	if got := metMemosComputed.Value() - computed; got != 1 {
		t.Fatalf("cold worker computed %d memos, want 1", got)
	}
	store.mu.Lock()
	published = len(store.entries)
	store.mu.Unlock()
	if published != 2 {
		t.Fatalf("store holds %d entries after the memo, want 2 (the run and the memo)", published)
	}
	w5 := newWorker()
	computed = metMemosComputed.Value()
	if err := w5.ExecuteKey(memoKey); err != nil {
		t.Fatal(err)
	}
	if got := metMemosComputed.Value() - computed; got != 0 {
		t.Fatalf("warm peer computed %d memos, want 0", got)
	}
}
