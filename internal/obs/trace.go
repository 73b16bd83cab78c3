package obs

import (
	"strings"
	"time"
)

// traceBase anchors span timestamps: all Start/End values are
// nanoseconds since process start, read from Go's monotonic clock so
// span durations are immune to wall-clock steps.
var traceBase = time.Now()

func nowNanos() int64 { return int64(time.Since(traceBase)) }

// Trace is one query's span tree. A trace (and every span in it) is
// owned by the goroutine running the query: the engine records spans
// only from that goroutine, and work done elsewhere is attributed
// through counter deltas on the enclosing span. This keeps tracing allocation-light and makes a
// finished trace safe to read without synchronization.
type Trace struct {
	Root *Span
}

// NewTrace starts a trace whose root span begins now.
func NewTrace(name string) *Trace {
	return &Trace{Root: &Span{Name: name, Start: nowNanos()}}
}

// Finish ends the root span (if not already ended).
func (t *Trace) Finish() {
	if t != nil {
		t.Root.Finish()
	}
}

// String pretty-prints the span tree.
func (t *Trace) String() string {
	if t == nil || t.Root == nil {
		return ""
	}
	var b strings.Builder
	t.Root.write(&b, 0)
	return b.String()
}

// Attr is one integer attribute on a span.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// Span is one timed region of a traced query. Start and End are
// nanoseconds since process start (monotonic).
type Span struct {
	Name     string  `json:"name"`
	Start    int64   `json:"start_ns"`
	End      int64   `json:"end_ns"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// Child starts a sub-span. Nil-safe: a child of a nil span is nil, and
// every Span method is a no-op on nil — untraced code paths thread a nil
// span through at zero cost.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: nowNanos()}
	s.Children = append(s.Children, c)
	return c
}

// ChildAt attaches a sub-span with explicit bounds — used to represent
// time measured by counters (e.g. tier stall ns) as a span.
func (s *Span) ChildAt(name string, start, end int64) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: start, End: end}
	s.Children = append(s.Children, c)
	return c
}

// SetAttr records an integer attribute. No-op on nil.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: v})
}

// Finish ends the span (first call wins). No-op on nil.
func (s *Span) Finish() {
	if s != nil && s.End == 0 {
		s.End = nowNanos()
	}
}

// Dur returns the span duration (0 while unfinished).
func (s *Span) Dur() time.Duration {
	if s == nil || s.End == 0 {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

func (s *Span) write(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name)
	b.WriteString("  ")
	b.WriteString(s.Dur().String())
	for _, a := range s.Attrs {
		b.WriteString("  ")
		b.WriteString(a.Key)
		b.WriteString("=")
		b.WriteString(formatInt(a.Val))
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.write(b, depth+1)
	}
}
