package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Times are nanoseconds since the tracer started.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Now is the tracer clock: nanoseconds since the trace began.
func (t *Tracer) Now() int64 { return int64(time.Since(t.origin)) }

// NewID reserves a span ID, for a parent whose children are recorded
// before it ends.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// Record stores a finished span and returns its ID (id 0 allocates
// one).
func (t *Tracer) Record(id int64, name string, parent, req, start, end int64) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.NewID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// Active is a span that has started and not yet ended.
type Active struct {
	t      *Tracer
	id     int64
	name   string
	parent int64
	req    int64
	start  int64
}

// Start opens a span; End records it.
func (t *Tracer) Start(name string, parent, req int64) *Active {
	if t == nil {
		return nil
	}
	return &Active{t: t, id: t.NewID(), name: name, parent: parent, req: req, start: t.Now()}
}

// ID is the span's ID, for use as its children's parent.
func (a *Active) ID() int64 {
	if a == nil {
		return 0
	}
	return a.id
}

// End records the span and returns its duration in nanoseconds.
func (a *Active) End() int64 {
	if a == nil {
		return 0
	}
	end := a.t.Now()
	a.t.Record(a.id, a.name, a.parent, a.req, a.start, end)
	return end - a.start
}

// Spans returns a copy of the spans recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// SetParents rewrites the parent and request ID of spans recorded
// without one. Each orphan named child gets the span named parent that
// contains it in time. It is used where the request ID cannot travel
// with the call, as from the coordinator to its shards; it is exact
// only while one parent runs at a time.
func (t *Tracer) SetParents(child, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var parents []Span
	for _, s := range t.spans {
		if s.Name == parent {
			parents = append(parents, s)
		}
	}
	slices.SortFunc(parents, func(a, b Span) int { return cmpInt64(a.Start, b.Start) })
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != child || s.Parent != 0 {
			continue
		}
		// The last parent starting no later than the child.
		j, _ := slices.BinarySearchFunc(parents, s.Start, func(p Span, start int64) int {
			if p.Start <= start {
				return -1
			}
			return 1
		})
		if j > 0 && parents[j-1].End >= s.End {
			s.Parent = parents[j-1].ID
			s.Req = parents[j-1].Req
		}
	}
}

// LinkByReq makes each orphan span named child a child of the span
// named parent that carries the same request ID.
func (t *Tracer) LinkByReq(child, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[int64]int64{}
	for _, s := range t.spans {
		if s.Name == parent && s.Req != 0 {
			byReq[s.Req] = s.ID
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == child && s.Parent == 0 && s.Req != 0 {
			s.Parent = byReq[s.Req]
		}
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// SelfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// count once, and a child's time outside its parent does not count.
func SelfTimes(spans []Span) map[int64]int64 {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmpInt64(a[0], b[0]) })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// SelfTimeByName is the median self time in milliseconds of the spans
// of each name, with their count.
func SelfTimeByName(spans []Span) map[string]Summary {
	self := SelfTimes(spans)
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e6)
	}
	out := make(map[string]Summary, len(byName))
	for name, xs := range byName {
		out[name] = Summarize(xs, 0.99)
	}
	return out
}

// WriteFile writes the trace as one JSON document.
func (t *Tracer) WriteFile(path, workload string, seed int64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, t.Spans()}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
