package par

import (
	"fmt"
	"sync"
)

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
// derived inputs, and the serve daemon's rendered figures.
type Flights[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*Flight[V]
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

// State is where a key stands in a Flights table.
type State int

const (
	Absent  State = iota // never asked, or its last flight failed
	Running              // its flight is computing
	Done                 // its flight finished with a value
)

// Join returns k's flight. owner reports that the caller created it: the
// owner must Finish it, and every other caller waits on its Done.
func (t *Flights[K, V]) Join(k K) (f *Flight[V], owner bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.m[k]; ok {
		return f, false
	}
	if t.m == nil {
		t.m = map[K]*Flight[V]{}
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

// Do returns k's value: computed by fn when the caller owns the flight,
// else the owner's outcome once it finishes. joined reports that fn ran on
// another caller. A panic in fn finishes the flight with an error, so its
// joiners wake, then carries on up the owner's stack.
func (t *Flights[K, V]) Do(k K, fn func() (V, error)) (v V, err error, joined bool) {
	f, owner := t.Join(k)
	if !owner {
		<-f.done
		return f.val, f.err, true
	}
	finished := false
	defer func() {
		if !finished {
			t.Finish(k, f, v, fmt.Errorf("par: flight %v panicked", k))
		}
	}()
	v, err = fn()
	finished = true
	t.Finish(k, f, v, err)
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
	select {
	case <-f.done:
		return Done
	default:
		return Running
	}
}
