package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a benchmark-owned span
// recorded around a call into a layer, or a daemon span joined in from
// GET /debug/traces. Parent is the ID of the enclosing span (-1 for a
// root); Trace groups the spans of one request or sweep pass.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Trace  string            `json:"trace"`
	Name   string            `json:"name"`
	Layer  string            `json:"layer"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: every method is a no-op, so untraced runs pay one
// nil check per call site.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return s.ID
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is parent's duration minus the part of it that the union of
// the children's intervals covers. Children may nest, overlap each other
// or stick out of the parent; only their union inside the parent counts.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
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
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}

// selfTimes computes every span's self time from the parent links.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	kids := make(map[int][]span)
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = selfTime(s, kids[s.ID])
	}
	return out
}

// enclosing returns the index of the shortest span in cands whose interval
// contains s, or -1.
func enclosing(s span, cands []span) int {
	best := -1
	for i, c := range cands {
		if c.ID == s.ID || c.Start.After(s.Start) || c.End.Before(s.End) {
			continue
		}
		if best < 0 || c.dur() < cands[best].dur() {
			best = i
		}
	}
	return best
}
