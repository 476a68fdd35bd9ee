package par

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightsOneComputation: N callers asking for one key while its
// computation runs share that one computation and its value.
func TestFlightsOneComputation(t *testing.T) {
	var tab Flights[string, *int]
	var calls atomic.Int64
	release := make(chan struct{})
	const callers = 16
	vals := make([]*int, callers)
	joins := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, joined := tab.Do("k", func() (*int, error) {
				calls.Add(1)
				<-release
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], joins[i] = v, joined
		}()
	}
	for tab.State("k") != Running {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	owners := 0
	for i := range vals {
		if vals[i] == nil || vals[i] != vals[0] {
			t.Fatalf("caller %d got a different value", i)
		}
		if !joins[i] {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d callers report owning the flight, want 1", owners)
	}
	if s := tab.State("k"); s != Done {
		t.Fatalf("state after success = %v, want Done", s)
	}
	if _, _, joined := tab.Do("k", func() (*int, error) { t.Fatal("recomputed a done key"); return nil, nil }); !joined {
		t.Fatal("a caller after completion must join the done flight")
	}
}

// TestFlightsFailureEvictedBeforeJoinersWake: the joiners of a failed
// flight get its error, and by the time they wake the key has left the
// table, so the next call recomputes.
func TestFlightsFailureEvictedBeforeJoinersWake(t *testing.T) {
	var tab Flights[int, string]
	boom := errors.New("boom")
	f, owner := tab.Join(7)
	if !owner {
		t.Fatal("first Join must own the flight")
	}
	const joiners = 8
	var ready sync.WaitGroup
	ready.Add(joiners)
	states := make(chan State, joiners)
	errs := make(chan error, joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			g, owner := tab.Join(7)
			ready.Done()
			if owner || g != f {
				errs <- errors.New("a joiner got a flight of its own")
				states <- Absent
				return
			}
			<-g.Done()
			states <- tab.State(7)
			_, err := g.Result()
			errs <- err
		}()
	}
	ready.Wait()
	tab.Finish(7, f, "", boom)
	for i := 0; i < joiners; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("joiner got %v, want the owner's error", err)
		}
		if s := <-states; s != Absent {
			t.Fatalf("a woken joiner saw state %v, want Absent", s)
		}
	}
	v, err, joined := tab.Do(7, func() (string, error) { return "again", nil })
	if joined || err != nil || v != "again" {
		t.Fatalf("call after failure: %q, %v, joined=%v; want a fresh computation", v, err, joined)
	}
}

// TestFlightsState walks one key through Absent, Running and Done, and a
// second through a failure back to Absent.
func TestFlightsState(t *testing.T) {
	var tab Flights[string, int]
	if s := tab.State("a"); s != Absent {
		t.Fatalf("unasked key: %v, want Absent", s)
	}
	f, _ := tab.Join("a")
	if s := tab.State("a"); s != Running {
		t.Fatalf("joined key: %v, want Running", s)
	}
	select {
	case <-f.Done():
		t.Fatal("Done closed before Finish")
	default:
	}
	tab.Finish("a", f, 3, nil)
	if s := tab.State("a"); s != Done {
		t.Fatalf("finished key: %v, want Done", s)
	}
	if v, err := f.Result(); v != 3 || err != nil {
		t.Fatalf("Result = %d, %v; want 3, nil", v, err)
	}
	g, _ := tab.Join("b")
	tab.Finish("b", g, 0, errors.New("x"))
	if s := tab.State("b"); s != Absent {
		t.Fatalf("failed key: %v, want Absent", s)
	}
}

// TestFlightsPanicFinishes: a computation that panics finishes its flight
// with an error, so joiners wake and the next call recomputes.
func TestFlightsPanicFinishes(t *testing.T) {
	var tab Flights[string, int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the owner's panic must propagate")
			}
		}()
		tab.Do("p", func() (int, error) { panic("boom") })
	}()
	if s := tab.State("p"); s != Absent {
		t.Fatalf("panicked key: %v, want Absent", s)
	}
	if v, err, _ := tab.Do("p", func() (int, error) { return 1, nil }); v != 1 || err != nil {
		t.Fatalf("call after panic: %d, %v", v, err)
	}
}

// TestFlightsReleaseDropsOnce: concurrent releases of a counted entry's
// planned uses drop it exactly once, at the last, and not before.
func TestFlightsReleaseDropsOnce(t *testing.T) {
	var spent atomic.Int64
	tab := Flights[string, *int]{Spent: func(*int) (*int, bool) {
		spent.Add(1)
		return nil, false
	}}
	const uses = 64
	in := tab.Input("k")
	in.Expect(uses)
	if _, err, _ := tab.Do("k", func() (*int, error) { return new(int), nil }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < uses-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.Release()
		}()
	}
	wg.Wait()
	if s := tab.State("k"); s != Done || spent.Load() != 0 {
		t.Fatalf("after %d of %d releases: state %v, %d drops; want Done, 0", uses-1, uses, s, spent.Load())
	}
	var last sync.WaitGroup
	for i := 0; i < 8; i++ { // one planned release and seven surplus ones
		last.Add(1)
		go func() {
			defer last.Done()
			in.Release()
		}()
	}
	last.Wait()
	if s := tab.State("k"); s != Absent || spent.Load() != 1 {
		t.Fatalf("after the last release: state %v, %d drops; want Absent, 1", s, spent.Load())
	}
}

// TestFlightsUncountedStays: an entry with no planned use is never
// dropped, however often it is released, and Spent's residue replaces a
// counted value it keeps.
func TestFlightsUncountedStays(t *testing.T) {
	tab := Flights[string, int]{Spent: func(v int) (int, bool) { return -v, true }}
	tab.Do("free", func() (int, error) { return 1, nil })
	for i := 0; i < 3; i++ {
		tab.Release("free")
	}
	if _, _, joined := tab.Do("free", func() (int, error) { t.Fatal("rebuilt an uncounted entry"); return 0, nil }); !joined {
		t.Fatal("an uncounted entry must stay in the table")
	}
	tab.Expect("kept", 1)
	tab.Do("kept", func() (int, error) { return 5, nil })
	tab.Release("kept")
	if v, _, joined := tab.Do("kept", func() (int, error) { return 0, nil }); !joined || v != -5 {
		t.Fatalf("after its last use: %d, joined=%v; want Spent's residue -5, joined", v, joined)
	}
}

// TestFlightsRebuildAfterRelease: a request after the last planned use
// released an entry builds it again and counts one rebuild; the rebuilt,
// uncounted entry then stays.
func TestFlightsRebuildAfterRelease(t *testing.T) {
	var tab Flights[string, int]
	builds := 0
	build := func() (int, error) { builds++; return builds, nil }
	tab.Expect("k", 1)
	tab.Do("k", build)
	tab.Release("k")
	rebuilds := metRebuilds.Value()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab.Do("k", build)
		}()
	}
	wg.Wait()
	if builds != 2 {
		t.Fatalf("built %d times, want 2 (once, then once after release)", builds)
	}
	if got := metRebuilds.Value() - rebuilds; got != 1 {
		t.Fatalf("counted %d rebuilds, want 1", got)
	}
	tab.Release("k")
	if _, _, joined := tab.Do("k", build); !joined || metRebuilds.Value()-rebuilds != 1 {
		t.Fatal("a rebuilt entry no plan counts must stay")
	}
}
