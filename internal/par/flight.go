package par

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
)

var metRebuilds = metrics.NewCounter("cubie_input_rebuilds_total",
	"Flight-table entries built again after their last planned use released them.")

// Flights is a keyed table of compute-once values. The first caller for a
// key owns its flight and computes the value; every caller that asks while
// it computes, or after it succeeded, joins the flight and shares its
// outcome. A failed flight leaves the table before its joiners wake, so
// they get its error and the next caller for the key computes afresh. The
// zero value is an empty table; a Flights must not be copied after first
// use.
//
// Every compute-once value of the suite is a Flights entry: the harness's
// plan keys, the shared Table 3 and Table 4 datasets, each kernel case's
// derived inputs and dense operands, and the serve daemon's rendered
// figures.
//
// # Planned uses
//
// An entry lives as long as the plans that read it need it. A plan counts
// each read it will make of a key up front (Expect) and marks each done
// (Release); the release of the last leaves the table (Spent says what it
// keeps of the value), so the value is garbage once its readers let go. A
// later request builds it again: correct, but the work is repeated, and
// cubie_input_rebuilds_total counts it. A key no plan counted stays until
// the process exits. That keeps a single request's inputs (`cubie run`,
// one `cubie work` key after another) built once, where no plan knows
// which key comes next.
type Flights[K comparable, V any] struct {
	// Spent, when set, gives what an entry keeps of its value v after its
	// last planned use: keep false drops the entry. Unset, every entry is
	// dropped. It runs under the table's lock, so it must not call the
	// table.
	Spent func(v V) (residue V, keep bool)

	mu   sync.Mutex
	m    map[K]*Flight[V]
	uses map[K]int      // planned uses not yet released
	gone map[K]struct{} // keys dropped at their last planned use
}

// Flight is one key's computation in a Flights table.
type Flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Done is closed once the flight's outcome is set.
func (f *Flight[V]) Done() <-chan struct{} { return f.done }

// Result returns the flight's outcome; call it once Done is closed.
func (f *Flight[V]) Result() (V, error) { return f.val, f.err }

// finished reports whether the flight's outcome is set.
func (f *Flight[V]) finished() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// State is where a key stands in a Flights table.
type State int

const (
	Absent  State = iota // never asked, or its last flight failed or was released
	Running              // its flight is computing
	Done                 // its flight finished with a value
)

// Join returns k's flight. owner reports that the caller created it: the
// owner must finish it (Compute or Finish), and every other caller waits
// on its Done.
func (t *Flights[K, V]) Join(k K) (f *Flight[V], owner bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.m[k]; ok {
		return f, false
	}
	if t.m == nil {
		t.m = map[K]*Flight[V]{}
	}
	if _, ok := t.gone[k]; ok {
		delete(t.gone, k)
		metRebuilds.Inc()
	}
	f = &Flight[V]{done: make(chan struct{})}
	t.m[k] = f
	return f, true
}

// Finish sets the outcome of k's flight f, which the caller owns, and
// wakes its joiners. A failed flight leaves the table first.
func (t *Flights[K, V]) Finish(k K, f *Flight[V], v V, err error) {
	f.val, f.err = v, err
	if err != nil {
		t.mu.Lock()
		if t.m[k] == f {
			delete(t.m, k)
		}
		t.mu.Unlock()
	}
	close(f.done)
}

// Compute finishes k's flight f, which the caller owns, with fn's outcome.
// A panic in fn finishes the flight with an error, so its joiners wake,
// then carries on up the caller's stack.
func (t *Flights[K, V]) Compute(k K, f *Flight[V], fn func() (V, error)) (v V, err error) {
	finished := false
	defer func() {
		if !finished {
			t.Finish(k, f, v, fmt.Errorf("par: flight %v panicked", k))
		}
	}()
	v, err = fn()
	finished = true
	t.Finish(k, f, v, err)
	return v, err
}

// Do returns k's value: computed by fn when the caller owns the flight,
// else the owner's outcome once it finishes. joined reports that fn ran on
// another caller.
func (t *Flights[K, V]) Do(k K, fn func() (V, error)) (v V, err error, joined bool) {
	f, owner := t.Join(k)
	if !owner {
		<-f.done
		return f.val, f.err, true
	}
	v, err = t.Compute(k, f, fn)
	return v, err, false
}

// State reports where k stands. A finished flight still in the table
// succeeded, since a failed one leaves before it finishes.
func (t *Flights[K, V]) State(k K) State {
	t.mu.Lock()
	f, ok := t.m[k]
	t.mu.Unlock()
	if !ok {
		return Absent
	}
	if f.finished() {
		return Done
	}
	return Running
}

// Expect counts n more planned uses of k, whether or not its entry exists
// yet.
func (t *Flights[K, V]) Expect(k K, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.uses == nil {
		t.uses = map[K]int{}
	}
	t.uses[k] += n
}

// Release marks one planned use of k done. The last one drops k's entry,
// or replaces its value with Spent's residue; an entry still computing
// stays, uncounted. A key with no planned use left is untouched.
func (t *Flights[K, V]) Release(k K) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.uses[k]
	if !ok {
		return
	}
	if n > 1 {
		t.uses[k] = n - 1
		return
	}
	delete(t.uses, k)
	f, ok := t.m[k]
	if !ok || !f.finished() {
		return
	}
	if t.Spent != nil {
		if v, keep := t.Spent(f.val); keep {
			done := &Flight[V]{done: make(chan struct{}), val: v}
			close(done.done)
			t.m[k] = done
			return
		}
	}
	delete(t.m, k)
	if t.gone == nil {
		t.gone = map[K]struct{}{}
	}
	t.gone[k] = struct{}{}
}

// Input names k's entry as an Input, for a plan to count its uses.
func (t *Flights[K, V]) Input(k K) Input { return entry[K, V]{t, k} }

// Input is one entry of some Flights table, as a plan counts its uses:
// Expect before the plan runs anything, Release after each planned reader
// finished.
type Input interface {
	Expect(n int)
	Release()
}

type entry[K comparable, V any] struct {
	t *Flights[K, V]
	k K
}

func (e entry[K, V]) Expect(n int) { e.t.Expect(e.k, n) }
func (e entry[K, V]) Release()     { e.t.Release(e.k) }
