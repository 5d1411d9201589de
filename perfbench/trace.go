package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one operation share Req; Parent links a call to the span that
// caused it (0 for a root).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Req    int64     `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	next   int64
	spans  []span
	counts map[string][]float64
}

// count records a value counted at a layer boundary (simulations, bytes
// allocated), next to the spans taken there.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counts == nil {
		t.counts = make(map[string][]float64)
	}
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

func (t *tracer) values(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.counts[name]...)
}

// newID reserves a span id, for a span whose edges are known only later.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// begin opens a span and returns its id and the function that closes it.
// A root span (req 0) starts a new request id.
func (t *tracer) begin(name string, parent, req int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.newID()
	if req == 0 {
		req = id
	}
	start := time.Now()
	return id, func() { t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: time.Now()}) }
}

// add records a finished span built by the caller (used where the span's
// edges come from timestamps taken elsewhere, such as httptrace hooks).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsMS returns the durations of every span with the given name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimesMS returns, for every span with the given name, its self time.
func (t *tracer) selfTimesMS(name string) []float64 {
	all := t.snapshot()
	children := make(map[int64][]span)
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range all {
		if s.Name == name {
			out = append(out, ms(selfTime(s, children[s.ID])))
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children are counted once and the parts of
// children outside the parent are ignored, so the result is never negative.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return parent.dur() - covered
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
