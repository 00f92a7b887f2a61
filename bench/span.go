package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around that layer's public functions.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // the request or period the span belongs to
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start"`  // ns since the tracer started
	End    int64  `json:"end"`
	OK     bool   `json:"ok"` // the wrapped call succeeded
}

// tracer collects spans in memory. With one serial caller every span
// nests inside the one that was open when it began — the client's
// round trip encloses the handler, which encloses the service call,
// which encloses the placer — so the parent is the top of a stack even
// though client and server run on different goroutines. The mutex
// makes that sharing safe; it is never contended.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	op    int
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording on or off; the runner records only the
// timed phase.
func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// nextOp starts a new request or period: later spans carry its id.
func (t *tracer) nextOp(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = id
	t.mu.Unlock()
}

// begin opens a span and returns its handle (-1 while recording is
// off). A nil tracer records nothing, so code that runs both traced
// and untraced calls it unconditionally.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32, ok bool) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].OK = ok
	// Spans close innermost first; tolerate a handler that outlives its
	// round trip by popping down to the span being closed.
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1] == id {
			t.stack = t.stack[:n-1]
			break
		}
	}
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // per parent: end of the interval counted so far
	for i, s := range spans {
		self[i] = s.End - s.Start
		covered[i] = s.Start
	}
	// Spans are recorded in start order, so each parent sees its
	// children by ascending start and a running "covered until" mark
	// removes overlaps.
	for _, s := range spans {
		p := s.Parent
		if p < 0 {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < covered[p] {
			lo = covered[p]
		}
		if hi > spans[p].End {
			hi = spans[p].End
		}
		if hi > lo {
			self[p] -= hi - lo
			covered[p] = hi
		}
	}
	return self
}

// spanStats groups a span list by name: durations and self times in
// nanoseconds, split by whether the wrapped call succeeded.
type spanStats struct {
	dur, self, durOK, durFailed samples
}

func groupSpans(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	by := make(map[string]*spanStats)
	for i, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStats{}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.dur = append(st.dur, d)
		st.self = append(st.self, self[i])
		if s.OK {
			st.durOK = append(st.durOK, d)
		} else {
			st.durFailed = append(st.durFailed, d)
		}
	}
	return by
}

// rootTime sums the durations of the spans that have no parent.
func rootTime(spans []span) int64 {
	var t int64
	for _, s := range spans {
		if s.Parent < 0 {
			t += s.End - s.Start
		}
	}
	return t
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing span file: %w", err)
	}
	return nil
}
