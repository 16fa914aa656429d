package memo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// bytesMemo is the result-cache shape: byte values accounted by length.
func bytesMemo(maxEntries int, maxBytes int64) *Memo[[]byte] {
	return New(Options[[]byte]{
		MaxEntries: maxEntries,
		MaxBytes:   maxBytes,
		Size:       func(b []byte) int64 { return int64(len(b)) },
	})
}

// TestMemoCoalescesConcurrentFills is the core guarantee under
// `go test -race`: N goroutines asking for the same key run the fill
// exactly once, and every caller gets byte-identical bytes. The leader
// blocks inside fill until every follower has registered against its
// flight, so the test exercises the coalescing path rather than the
// warm-cache path.
func TestMemoCoalescesConcurrentFills(t *testing.T) {
	const followers = 31
	m := bytesMemo(8, 0)
	var fills atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	want := []byte(`{"result":42}`)
	fill := func() ([]byte, error) {
		fills.Add(1)
		close(entered)
		<-release
		return want, nil
	}

	type outcome struct {
		val    []byte
		status Status
		err    error
	}
	results := make(chan outcome, followers+1)
	get := func() {
		v, st, err := m.Do(context.Background(), "k", fill)
		results <- outcome{v, st, err}
	}

	go get()
	<-entered // the leader is inside fill and holds the flight slot
	for i := 0; i < followers; i++ {
		go get()
	}
	// Release the leader only once every follower waits on its flight,
	// so none of them races to a plain hit.
	for {
		if _, _, coalesced, _ := m.Counters(); coalesced == followers {
			break
		}
		runtime.Gosched()
	}
	close(release)

	statuses := map[Status]int{}
	for i := 0; i < followers+1; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("Do returned error: %v", o.err)
		}
		if !bytes.Equal(o.val, want) {
			t.Fatalf("Do returned %q, want %q (responses must be byte-identical)", o.val, want)
		}
		statuses[o.status]++
	}
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times for one key, want exactly 1", n)
	}
	if statuses[Miss] != 1 || statuses[Coalesced] != followers {
		t.Errorf("statuses %v, want 1 miss (the leader) and %d coalesced", statuses, followers)
	}
	if h, mi, c, e := m.Counters(); h != 0 || mi != 1 || c != followers || e != 0 {
		t.Errorf("counters = (%d, %d, %d, %d), want (0, 1, %d, 0)", h, mi, c, e, followers)
	}
}

func TestMemoHitAfterFill(t *testing.T) {
	m := New(Options[any]{MaxEntries: 4})
	fills := 0
	fill := func() (any, error) { fills++; return 42, nil }
	for i, want := range []Status{Miss, Hit, Hit} {
		v, st, err := m.Do(context.Background(), "k", fill)
		if err != nil || st != want || v != 42 {
			t.Fatalf("Do #%d = (%v, %v, %v), want (42, %v, nil)", i, v, st, err, want)
		}
	}
	if fills != 1 {
		t.Errorf("fill ran %d times, want 1", fills)
	}
	if h, mi, _, _ := m.Counters(); h != 2 || mi != 1 {
		t.Errorf("counters hits=%d misses=%d, want 2/1", h, mi)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	m := bytesMemo(2, 0)
	fills := map[string]int{}
	do := func(k string) Status {
		t.Helper()
		_, st, err := m.Do(context.Background(), k, func() ([]byte, error) {
			fills[k]++
			return []byte(k), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	do("a")
	do("b")
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if st := do("a"); st != Hit {
		t.Fatalf("a should be cached, got %v", st)
	}
	do("c")
	if _, _, _, ev := m.Counters(); m.Len() != 2 || ev != 1 {
		t.Errorf("(entries, evictions) = (%d, %d), want (2, 1)", m.Len(), ev)
	}
	if st := do("a"); st != Hit {
		t.Errorf("recently-used key a should still hit, got %v", st)
	}
	// Refilling the evicted "b" pushes out the memo's new LRU, "c".
	if st := do("b"); st != Miss {
		t.Errorf("evicted key b should miss, got %v", st)
	}
	if st := do("c"); st != Miss {
		t.Errorf("key c should have been evicted by b's refill, got %v", st)
	}
	if fills["a"] != 1 || fills["b"] != 2 || fills["c"] != 2 {
		t.Errorf("fill counts %v, want a=1 b=2 c=2", fills)
	}
}

// TestMemoEvictHook pins that OnEvict runs once per eviction, the
// channel the serving layer feeds its evictions metric through.
func TestMemoEvictHook(t *testing.T) {
	var evicted int
	m := New(Options[int]{MaxEntries: 1, OnEvict: func() { evicted++ }})
	for i, k := range []string{"a", "b", "c"} {
		if _, _, err := m.Do(context.Background(), k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, ev := m.Counters(); evicted != 2 || ev != 2 {
		t.Errorf("OnEvict ran %d times, counter %d; want 2 and 2", evicted, ev)
	}
}

func TestMemoErrorsAreNotCached(t *testing.T) {
	m := bytesMemo(8, 0)
	boom := errors.New("boom")
	calls := 0
	fill := func() ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return []byte("ok"), nil
	}
	if _, st, err := m.Do(context.Background(), "k", fill); !errors.Is(err, boom) || st != Miss {
		t.Fatalf("first Do = (%v, %v), want (miss, boom)", st, err)
	}
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Fatalf("error was cached: Len %d, Bytes %d", m.Len(), m.Bytes())
	}
	v, st, err := m.Do(context.Background(), "k", fill)
	if err != nil || st != Miss || string(v) != "ok" {
		t.Fatalf("retry after error: %q, status %v, err %v (errors must not poison the key)", v, st, err)
	}
	if calls != 2 {
		t.Errorf("fill ran %d times, want 2", calls)
	}
}

// TestMemoByteEviction pins the byte bound: entries are evicted
// oldest-first once accounted key+value bytes exceed the cap, even when
// the entry count is far below MaxEntries, and the accounted bytes
// shrink to match. The newest entry is always retained, even when it
// alone exceeds the cap.
func TestMemoByteEviction(t *testing.T) {
	// Each entry: 1-byte key + 40-byte value = 41 bytes. Cap fits two.
	m := bytesMemo(100, 90)
	val := bytes.Repeat([]byte("x"), 40)
	do := func(k string, v []byte) Status {
		t.Helper()
		_, st, err := m.Do(context.Background(), k, func() ([]byte, error) { return v, nil })
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	shape := func() (int, int64, int64) {
		_, _, _, ev := m.Counters()
		return m.Len(), m.Bytes(), ev
	}
	do("a", val)
	do("b", val)
	if n, size, ev := shape(); n != 2 || size != 82 || ev != 0 {
		t.Fatalf("after 2 puts: (%d, %d, %d), want (2, 82, 0)", n, size, ev)
	}
	// A third entry pushes bytes to 123 > 90: the oldest ("a") goes.
	do("c", val)
	if n, size, ev := shape(); n != 2 || size != 82 || ev != 1 {
		t.Errorf("after byte overflow: (%d, %d, %d), want (2, 82, 1)", n, size, ev)
	}
	if st := do("a", val); st != Miss {
		t.Errorf("oldest key a should have been evicted by bytes, got %v", st)
	}
	// An entry larger than the whole cap evicts everything else but is
	// itself retained: serving it once from the memo beats thrashing.
	huge := bytes.Repeat([]byte("y"), 200)
	do("h", huge)
	if n, size, _ := shape(); n != 1 || size != 201 {
		t.Errorf("oversized entry: (%d entries, %d bytes), want (1, 201)", n, size)
	}
	if st := do("h", huge); st != Hit {
		t.Errorf("oversized entry should still be served from the memo, got %v", st)
	}
}

// TestMemoUnboundedBytes pins that MaxBytes <= 0 disables the byte
// bound entirely (only the entry count evicts) while Size still
// accounts the footprint.
func TestMemoUnboundedBytes(t *testing.T) {
	m := bytesMemo(4, 0)
	big := bytes.Repeat([]byte("z"), 1<<16)
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, _, err := m.Do(context.Background(), k, func() ([]byte, error) { return big, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, ev := m.Counters(); m.Len() != 4 || m.Bytes() != 4*(1<<16)+4 || ev != 0 {
		t.Errorf("(%d, %d, %d), want (4, %d, 0)", m.Len(), m.Bytes(), ev, 4*(1<<16)+4)
	}
}

func TestMemoFollowerHonorsOwnContext(t *testing.T) {
	m := bytesMemo(8, 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := m.Do(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			return []byte("v"), nil
		})
		leaderDone <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := m.Do(ctx, "k", func() ([]byte, error) {
		return nil, fmt.Errorf("follower must not fill")
	})
	if !errors.Is(err, context.Canceled) || st != Coalesced {
		t.Errorf("cancelled follower = (%v, %v), want (coalesced, context.Canceled)", st, err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader err = %v; a follower's cancellation must not reach it", err)
	}
}

// TestMemoPanickingFillDoesNotWedgeKey is the regression test for the
// singleflight panic hole the waitbalance lint rule found: the leader
// published its flight entry, then ran fill without a deferred
// cleanup, so a panicking fill left the done channel open forever and
// every later Do of the key blocked on it. Do must (a) let the panic
// keep unwinding through the leader, (b) release a coalesced follower
// with ErrFillPanicked rather than a hang, and (c) leave the key
// workable so a retry runs a fresh fill.
func TestMemoPanickingFillDoesNotWedgeKey(t *testing.T) {
	m := bytesMemo(8, 0)
	ctx := context.Background()
	entered := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		m.Do(ctx, "k", func() ([]byte, error) {
			close(entered)
			<-release
			panic("fill exploded")
		})
	}()
	<-entered
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := m.Do(ctx, "k", func() ([]byte, error) {
			return nil, fmt.Errorf("follower must not fill")
		})
		followerErr <- err
	}()
	for {
		if _, _, coalesced, _ := m.Counters(); coalesced == 1 {
			break
		}
		runtime.Gosched()
	}
	close(release)

	if recovered := <-leaderDone; recovered != "fill exploded" {
		t.Fatalf("leader recover() = %v; the panic must keep unwinding through the leader", recovered)
	}
	if err := <-followerErr; !errors.Is(err, ErrFillPanicked) {
		t.Fatalf("follower err = %v, want ErrFillPanicked", err)
	}
	m.mu.Lock()
	_, stillInFlight := m.flight["k"]
	m.mu.Unlock()
	if stillInFlight {
		t.Fatal("flight entry survived the panic; the key is wedged for future callers")
	}

	// Nothing cached, key not poisoned: a retry fills fresh and caches.
	val, st, err := m.Do(ctx, "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(val) != "ok" || st != Miss {
		t.Fatalf("retry after panic = (%q, %v, %v), want (ok, miss, nil)", val, st, err)
	}
	if _, st, _ := m.Do(ctx, "k", nil); st != Hit {
		t.Fatalf("second retry status = %v, want hit", st)
	}
	if h, mi, _, _ := m.Counters(); h != 1 || mi != 2 {
		t.Fatalf("counters after panic+retry = hits %d misses %d, want 1 and 2", h, mi)
	}
}

func TestNilMemoRunsFill(t *testing.T) {
	var m *Memo[any]
	calls := 0
	for i := 0; i < 2; i++ {
		v, st, err := m.Do(context.Background(), "k", func() (any, error) { calls++; return i, nil })
		if err != nil || st != Miss || v != i {
			t.Fatalf("nil Do = (%v, %v, %v); want (%d, miss, nil)", v, st, err, i)
		}
	}
	if calls != 2 {
		t.Fatalf("nil memo cached: %d calls, want 2", calls)
	}
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Fatalf("nil Len = %d, Bytes = %d", m.Len(), m.Bytes())
	}
	if h, mi, c, e := m.Counters(); h|mi|c|e != 0 {
		t.Fatal("nil Counters nonzero")
	}
}

func TestGetTyped(t *testing.T) {
	m := New(Options[any]{MaxEntries: 4})
	s, err := Get(m, "s", func() (string, error) { return "hello", nil })
	if err != nil || s != "hello" {
		t.Fatalf("Get = %q, %v", s, err)
	}
	boom := errors.New("boom")
	if _, err := Get(m, "e", func() ([]int, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Get err = %v, want boom", err)
	}
}

func TestNewDefaultBound(t *testing.T) {
	if m := New(Options[any]{}); m.opts.MaxEntries != DefaultEntries {
		t.Fatalf("New bound = %d, want %d", m.opts.MaxEntries, DefaultEntries)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{Miss: "miss", Hit: "hit", Coalesced: "coalesced"} {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", st, got, want)
		}
	}
}

// TestMemoConcurrentMixedKeys drives many goroutines over a few keys
// through a tiny memo, so hits, fills, coalescing and evictions
// interleave under -race. Every call must see its key's value, and the
// counters must account for every call exactly once.
func TestMemoConcurrentMixedKeys(t *testing.T) {
	const goroutines, calls = 8, 200
	m := New(Options[string]{MaxEntries: 2})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				k := fmt.Sprint((g + i) % 5)
				v, _, err := m.Do(context.Background(), k, func() (string, error) { return "v" + k, nil })
				if err != nil || v != "v"+k {
					t.Errorf("Do(%s) = (%q, %v)", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if h, mi, c, _ := m.Counters(); h+mi+c != goroutines*calls {
		t.Errorf("counters account for %d calls, want %d", h+mi+c, goroutines*calls)
	}
	if m.Len() > 2 {
		t.Errorf("Len = %d past the bound 2", m.Len())
	}
}
