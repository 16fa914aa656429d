package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"leodivide/internal/memo"
)

// These tests pin the result cache exactly as New builds it
// (newResultMemo): response bytes keyed by canonical scenario key,
// accounted as key+body bytes, with evictions feeding the process-wide
// serve.cache.evictions counter. The memo algorithm itself is tested
// in internal/memo; here the subject is the serving layer's wiring.

// doResult runs one result-cache lookup with a constant body.
func doResult(t *testing.T, m *memo.Memo[[]byte], key string, body []byte) memo.Status {
	t.Helper()
	_, st, err := m.Do(context.Background(), key, func() ([]byte, error) { return body, nil })
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMemoCoalescesConcurrentFills is the serving layer's core
// guarantee under `go test -race`: N identical in-flight queries run
// the experiment once and every caller gets byte-identical bytes.
func TestMemoCoalescesConcurrentFills(t *testing.T) {
	const followers = 15
	m := newResultMemo(8, 0)
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
		status memo.Status
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
	for {
		if _, _, coalesced, _ := m.Counters(); coalesced == followers {
			break
		}
		runtime.Gosched()
	}
	close(release)

	statuses := map[memo.Status]int{}
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
	if statuses[memo.Miss] != 1 || statuses[memo.Coalesced] != followers {
		t.Errorf("statuses %v, want 1 miss (the leader) and %d coalesced", statuses, followers)
	}
}

func TestMemoHitAfterFill(t *testing.T) {
	m := newResultMemo(8, 0)
	if st := doResult(t, m, "k", []byte("v")); st != memo.Miss {
		t.Fatalf("first lookup = %v, want miss", st)
	}
	v, st, err := m.Do(context.Background(), "k", func() ([]byte, error) {
		return nil, fmt.Errorf("a cached key must not refill")
	})
	if err != nil || st != memo.Hit || string(v) != "v" {
		t.Fatalf("second lookup = (%q, %v, %v), want (v, hit, nil)", v, st, err)
	}
}

// TestMemoLRUEviction pins the entry bound and that each eviction is
// reported on the serve.cache.evictions obs counter.
func TestMemoLRUEviction(t *testing.T) {
	m := newResultMemo(2, 0)
	before := metricEvictions.Value()
	doResult(t, m, "a", []byte("a"))
	doResult(t, m, "b", []byte("b"))
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if st := doResult(t, m, "a", []byte("a")); st != memo.Hit {
		t.Fatalf("a should be cached, got %v", st)
	}
	doResult(t, m, "c", []byte("c"))
	if _, _, _, ev := m.Counters(); m.Len() != 2 || ev != 1 {
		t.Errorf("(%d entries, %d evictions), want (2, 1)", m.Len(), ev)
	}
	if st := doResult(t, m, "a", []byte("a")); st != memo.Hit {
		t.Errorf("recently-used key a should still hit, got %v", st)
	}
	// Refilling the evicted "b" pushes out the new LRU, "c".
	if st := doResult(t, m, "b", []byte("b")); st != memo.Miss {
		t.Errorf("evicted key b should miss, got %v", st)
	}
	if st := doResult(t, m, "c", []byte("c")); st != memo.Miss {
		t.Errorf("key c should have been evicted by b's refill, got %v", st)
	}
	// Other tests in the package may evict concurrently, so the
	// process-wide counter is checked as a lower bound.
	if got := metricEvictions.Value() - before; got < 3 {
		t.Errorf("serve.cache.evictions grew by %d, want at least 3", got)
	}
}

func TestMemoErrorsAreNotCached(t *testing.T) {
	m := newResultMemo(8, 0)
	boom := errors.New("boom")
	if _, _, err := m.Do(context.Background(), "k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first lookup err = %v, want boom", err)
	}
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Fatalf("failed run was cached: Len %d, Bytes %d", m.Len(), m.Bytes())
	}
	if st := doResult(t, m, "k", []byte("ok")); st != memo.Miss {
		t.Fatalf("retry after error = %v, want miss (errors must not poison the key)", st)
	}
}

// TestMemoByteEviction pins the result cache's byte accounting: an
// entry costs its key plus its body, entries go oldest-first once the
// total exceeds Config.CacheBytes, and the newest body always stays.
func TestMemoByteEviction(t *testing.T) {
	// Each entry: 1-byte key + 40-byte body = 41 bytes. Cap fits two.
	m := newResultMemo(100, 90)
	body := bytes.Repeat([]byte("x"), 40)
	doResult(t, m, "a", body)
	doResult(t, m, "b", body)
	if m.Len() != 2 || m.Bytes() != 82 {
		t.Fatalf("after 2 puts: (%d entries, %d bytes), want (2, 82)", m.Len(), m.Bytes())
	}
	doResult(t, m, "c", body)
	if m.Len() != 2 || m.Bytes() != 82 {
		t.Errorf("after byte overflow: (%d entries, %d bytes), want (2, 82)", m.Len(), m.Bytes())
	}
	if st := doResult(t, m, "a", body); st != memo.Miss {
		t.Errorf("oldest key a should have been evicted by bytes, got %v", st)
	}
	huge := bytes.Repeat([]byte("y"), 200)
	doResult(t, m, "h", huge)
	if m.Len() != 1 || m.Bytes() != 201 {
		t.Errorf("oversized body: (%d entries, %d bytes), want (1, 201)", m.Len(), m.Bytes())
	}
	if st := doResult(t, m, "h", huge); st != memo.Hit {
		t.Errorf("oversized body should still be served from cache, got %v", st)
	}
}

// TestMemoUnboundedBytes pins the byte bound New selects for a negative
// Config.CacheBytes (0 = no byte bound): only the entry count evicts,
// while /v1/stats still sees the accounted bytes.
func TestMemoUnboundedBytes(t *testing.T) {
	m := newResultMemo(4, 0)
	big := bytes.Repeat([]byte("z"), 1<<16)
	for _, k := range []string{"a", "b", "c", "d"} {
		doResult(t, m, k, big)
	}
	if _, _, _, ev := m.Counters(); m.Len() != 4 || m.Bytes() != 4*(1<<16)+4 || ev != 0 {
		t.Errorf("(%d, %d, %d), want (4, %d, 0)", m.Len(), m.Bytes(), ev, 4*(1<<16)+4)
	}
}

// TestMemoFollowerHonorsOwnContext: a client that disconnects while
// coalesced on another request's run stops waiting at once; the run it
// waited on is unaffected and still cached.
func TestMemoFollowerHonorsOwnContext(t *testing.T) {
	m := newResultMemo(8, 0)
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
	if !errors.Is(err, context.Canceled) || st != memo.Coalesced {
		t.Errorf("cancelled follower = (%v, %v), want (coalesced, context.Canceled)", st, err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader err = %v", err)
	}
	if st := doResult(t, m, "k", nil); st != memo.Hit {
		t.Errorf("leader's body after the follower left = %v, want hit", st)
	}
}

// TestMemoPanickingFillDoesNotWedgeKey: a run that panics must release
// its coalesced followers with an error rather than a hang, keep
// unwinding through the leader, and leave the scenario key workable.
func TestMemoPanickingFillDoesNotWedgeKey(t *testing.T) {
	m := newResultMemo(8, 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		m.Do(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			panic("fill exploded")
		})
	}()
	<-entered
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := m.Do(context.Background(), "k", func() ([]byte, error) {
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
	if err := <-followerErr; !errors.Is(err, memo.ErrFillPanicked) {
		t.Fatalf("follower err = %v, want memo.ErrFillPanicked", err)
	}
	if st := doResult(t, m, "k", []byte("ok")); st != memo.Miss {
		t.Fatalf("retry after panic = %v, want miss", st)
	}
	if st := doResult(t, m, "k", nil); st != memo.Hit {
		t.Fatalf("second retry = %v, want hit", st)
	}
}
