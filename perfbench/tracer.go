package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share its ID; a
// layer span's parent is its op's root span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
	op    int
	root  int
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now(), root: -1}
}

// beginOp opens op i's root span.
func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	t.op = i
	t.root = t.begin("op")
}

// endOp closes the current op's root span.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.end(t.root)
	t.root = -1
}

// begin opens a span under the current op and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: t.root, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// do wraps fn in a span named name.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// selfTimes returns each span name's total self time in ms: a span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		covered := coverage(children[s.ID], s.Start, s.End)
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// coverage is the length of the union of the child intervals clipped to
// [lo, hi].
func coverage(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curLo, curHi int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, lo), min(k.End, hi)
		if e <= s {
			continue
		}
		if open && s <= curHi {
			curHi = max(curHi, e)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = s, e, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
