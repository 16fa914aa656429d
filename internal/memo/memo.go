// Package memo is the module's one memoizing cache: a string-keyed,
// LRU-bounded store fronted by singleflight coalescing. Its users: the
// per-dataset compute-stage memo (demand.Distribution's Stages), the
// serving layer's result cache (canonical scenario key → response
// bytes), the serving layer's lazily generated sibling region datasets,
// and generation's process-wide seed-invariant tables (the US cell
// table, the body counts and the synthetic footprints).
//
// Determinism is what makes memoizing sound in every one of them: the
// key fully determines the value, so a cached or coalesced answer is
// exactly as good as a fresh fill.
//
// Concurrency: Do is safe for concurrent use. The first caller of a
// missing key (the leader) runs the fill; later callers of the same key
// (followers) wait for it and share its value and error. A follower
// stops waiting when its own ctx ends. Successful fills are cached;
// errors are not, so a transient failure or a cancelled context does
// not poison the key. A fill that panics releases its followers with
// ErrFillPanicked, frees the key for a fresh fill, and keeps unwinding
// through the leader.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Status classifies how one Do call was satisfied.
type Status int

const (
	// Miss: this caller ran the fill.
	Miss Status = iota
	// Hit: the memo already held the value.
	Hit
	// Coalesced: an identical fill was already in flight; this caller
	// waited for its result instead of running a second fill.
	Coalesced
)

// String names the status in lowercase ("miss", "hit", "coalesced").
func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// ErrFillPanicked is what coalesced followers observe when the leader's
// fill panicked. Nothing is cached; a retry runs a fresh fill.
var ErrFillPanicked = errors.New("memo: fill panicked in the coalescing leader")

// DefaultEntries is the entry bound when Options.MaxEntries is <= 0.
const DefaultEntries = 128

// Options bounds a Memo.
type Options[V any] struct {
	// MaxEntries bounds the number of cached values (<= 0 selects
	// DefaultEntries).
	MaxEntries int
	// MaxBytes bounds the accounted bytes of the cached entries
	// (<= 0: no byte bound). Only meaningful with Size.
	MaxBytes int64
	// Size is one value's accounted bytes; the key's length is added
	// to it. Nil turns byte accounting off.
	Size func(V) int64
	// OnEvict, if set, runs once per eviction, under the memo's lock.
	OnEvict func()
}

// Memo is a bounded, singleflight-coalesced memo. Construct with New;
// the zero value is not usable, but a nil *Memo is: every Do on a nil
// memo just runs the fill, so optional memoizing degrades gracefully.
type Memo[V any] struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	ll      *list.List // front = most recently used
	flight  map[string]*flight[V]
	opts    Options[V]
	bytes   int64 // accounted bytes of the cached entries

	hits, misses, coalesced, evictions int64
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// flight is one in-flight fill; followers wait on done and then read
// val/err, which the leader writes before closing done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty memo with the given bounds.
func New[V any](opts Options[V]) *Memo[V] {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultEntries
	}
	return &Memo[V]{
		entries: make(map[string]*list.Element),
		ll:      list.New(),
		flight:  make(map[string]*flight[V]),
		opts:    opts,
	}
}

// Do returns the value for key, running fill on a miss, and reports
// how the call was satisfied. Every call counts once in Counters, as
// the status it returns, whether or not it succeeds.
func (m *Memo[V]) Do(ctx context.Context, key string, fill func() (V, error)) (V, Status, error) {
	if m == nil {
		v, err := fill()
		return v, Miss, err
	}
	m.mu.Lock()
	if el, ok := m.entries[key]; ok {
		m.ll.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		m.hits++
		m.mu.Unlock()
		return v, Hit, nil
	}
	if f, ok := m.flight[key]; ok {
		m.coalesced++
		m.mu.Unlock()
		select {
		case <-f.done:
			return f.val, Coalesced, f.err
		case <-ctx.Done():
			var zero V
			return zero, Coalesced, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	m.flight[key] = f
	m.misses++
	m.mu.Unlock()

	// The flight entry is already published, so the cleanup must
	// survive a panicking fill: otherwise done never closes and every
	// later Do of the key blocks forever. The deferred form removes the
	// entry, marks the panic for followers, and closes done however
	// fill returns; the panic itself keeps unwinding.
	completed := false
	defer func() {
		if !completed {
			f.err = ErrFillPanicked
		}
		m.mu.Lock()
		delete(m.flight, key)
		if completed && f.err == nil {
			m.add(key, f.val)
		}
		m.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fill()
	completed = true
	return f.val, Miss, f.err
}

// add inserts under m.mu, evicting the least recently used entries
// past either bound. The key is not cached yet: only its flight's
// leader adds it. The newest entry always stays, even if it alone
// exceeds MaxBytes: the caller just computed it, and serving it from
// the memo once beats thrashing.
func (m *Memo[V]) add(key string, val V) {
	var size int64
	if m.opts.Size != nil {
		size = int64(len(key)) + m.opts.Size(val)
	}
	m.entries[key] = m.ll.PushFront(&entry[V]{key: key, val: val, size: size})
	m.bytes += size
	for m.ll.Len() > 1 && (m.ll.Len() > m.opts.MaxEntries || (m.opts.MaxBytes > 0 && m.bytes > m.opts.MaxBytes)) {
		oldest := m.ll.Remove(m.ll.Back()).(*entry[V])
		delete(m.entries, oldest.key)
		m.bytes -= oldest.size
		m.evictions++
		if m.opts.OnEvict != nil {
			m.opts.OnEvict()
		}
	}
}

// Len reports the number of cached values.
func (m *Memo[V]) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// Bytes reports the accounted bytes of the cached entries (0 without
// Options.Size).
func (m *Memo[V]) Bytes() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Counters returns the memo's lifetime traffic counts: one of hits,
// misses or coalesced per Do call, and one eviction per value pushed
// out by a bound.
func (m *Memo[V]) Counters() (hits, misses, coalesced, evictions int64) {
	if m == nil {
		return 0, 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, m.coalesced, m.evictions
}

// Get memoizes a fallible typed fill in an untyped memo: the shape of
// a dataset's stage memo, where one memo holds values of many types.
// Stage fills are short and pure, so followers wait without a context.
func Get[T any](m *Memo[any], key string, fill func() (T, error)) (T, error) {
	v, _, err := m.Do(context.Background(), key, func() (any, error) { return fill() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}
