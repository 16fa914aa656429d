package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing. A span marks one timed region of the pipeline
// (an experiment run, a generation stage, a parallel sweep). Spans nest
// through context.Context: StartSpan derives a child of the context's
// current span and stores itself as the new current span, so the
// pipeline's natural call structure becomes the trace tree.
//
// The whole facility is gated on a process-wide Collector. With none
// installed (the default), StartSpan is one atomic load, allocates
// nothing, and returns a nil *Span whose methods are no-ops — the
// instrumented pipeline runs at full speed. Tests and the CLI's -trace
// flag install a RecordingCollector around the region they care about.

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Span is one timed, attributed region. Fields are set by StartSpan and
// End; a span is owned by the goroutine that started it and must not be
// mutated concurrently.
type Span struct {
	// Name identifies the region (e.g. "experiment.table2").
	Name string
	// Parent is the enclosing span, nil for a root.
	Parent *Span
	// Depth is the nesting depth (0 for a root).
	Depth int
	// Start is the span's start time.
	Start time.Time
	// Duration is set by End.
	Duration time.Duration
	// Attrs are the span's annotations.
	Attrs []Attr

	col   Collector
	ended bool
}

// SetAttr appends attributes. No-op on a nil span, so instrumented code
// can call it unconditionally — though hot paths should guard with
// `if span != nil` to avoid evaluating attribute arguments.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// End stamps the duration and hands the finished span to the collector.
// No-op on a nil span; a second End is ignored.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Duration = now().Sub(s.Start)
	s.col.SpanEnd(s)
}

// Collector receives finished spans. Implementations must be safe for
// concurrent use: parallel pipeline stages end spans from their own
// goroutines.
type Collector interface {
	SpanEnd(s *Span)
}

// now is the span clock, swappable by tests in this package.
var now = time.Now

type collectorBox struct{ c Collector }

var activeCollector atomic.Pointer[collectorBox]

// SetCollector installs c as the process-wide span collector (nil
// uninstalls) and returns a restore func that reinstates the previous
// collector. Collection is process-global on purpose: the pipeline is
// instrumented once, and whoever runs it (CLI flag, test) decides
// whether spans are recorded.
func SetCollector(c Collector) (restore func()) {
	var box *collectorBox
	if c != nil {
		box = &collectorBox{c: c}
	}
	prev := activeCollector.Swap(box)
	return func() { activeCollector.Store(prev) }
}

type spanCtxKey struct{}

// FromContext returns the context's current span, nil if none.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a span named name as a child of the context's current
// span and returns a derived context carrying it. With no collector
// installed it returns (ctx, nil) without allocating; the nil span's
// SetAttr and End are no-ops.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	box := activeCollector.Load()
	if box == nil {
		return ctx, nil
	}
	parent := FromContext(ctx)
	s := &Span{
		Name:   name,
		Parent: parent,
		Start:  now(),
		Attrs:  attrs,
		col:    box.c,
	}
	if parent != nil {
		s.Depth = parent.Depth + 1
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// RecordingCollector accumulates finished spans in memory, in end
// order. It backs span tests and the CLI's -trace flag.
type RecordingCollector struct {
	mu    sync.Mutex
	spans []*Span
}

// SpanEnd implements Collector.
func (rc *RecordingCollector) SpanEnd(s *Span) {
	rc.mu.Lock()
	rc.spans = append(rc.spans, s)
	rc.mu.Unlock()
}

// Spans returns the finished spans collected so far, in end order.
func (rc *RecordingCollector) Spans() []*Span {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]*Span(nil), rc.spans...)
}

// WriteText renders the collected spans as an indented tree, ordered by
// start time, one line per span:
//
//	experiment.table2 12.4ms
//	  par.sweep 11.9ms tasks=5 workers=4
func (rc *RecordingCollector) WriteText(w io.Writer) error {
	spans := rc.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	for _, s := range spans {
		var b strings.Builder
		b.WriteString(strings.Repeat("  ", s.Depth))
		b.WriteString(s.Name)
		fmt.Fprintf(&b, " %s", s.Duration)
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
