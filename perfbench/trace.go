package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Parent is the id of the enclosing span (0 for a root) and Key the
// sample or request id the call served (-1 when it served none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    int64  `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, key int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// begin opens a span whose end is set by the returned function; children
// recorded in between may name the returned id as their parent.
func (t *tracer) begin(name string, parent int, key int64) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: int64(start.Sub(t.t0))})
	t.mu.Unlock()
	return id, func() {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes derives each name's self time: a span's duration minus the part
// of its interval that its children cover.
func (t *tracer) selfTimes() map[string]selfStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfStat{}
	for _, s := range t.spans {
		dur := s.End - s.Start
		covered := coveredNs(s, children[s.ID])
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered) / 1e6
		out[s.Name] = st
	}
	return out
}

// coveredNs is the length of the union of the children's intervals clipped
// to the parent's.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write stores the spans and their self-time summary as one JSON file.
func (t *tracer) write(path string, env envStamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Env   envStamp            `json:"env"`
		Self  map[string]selfStat `json:"self"`
		Spans []span              `json:"spans"`
	}{env, self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
