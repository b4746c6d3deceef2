package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark around a layer boundary.
// Spans of one operation share Op; Parent is the ID of the span that caused
// this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run calls the same code.
type spanRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// newOp returns a fresh operation identifier.
func (r *spanRecorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// begin opens a span now and returns its ID for end and for children.
func (r *spanRecorder) begin(name string, op, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, StartNs: now, EndNs: now})
	return len(r.spans)
}

// end closes the span begin opened and returns its duration.
func (r *spanRecorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = now
	return time.Duration(s.EndNs - s.StartNs)
}

// add records the root span of a new operation whose times were taken
// elsewhere (a load generator's sample), as offsets from base.
func (r *spanRecorder) add(name string, base time.Time, start, end time.Duration) {
	if r == nil {
		return
	}
	off := base.Sub(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Op: r.ops, Name: name,
		StartNs: (off + start).Nanoseconds(), EndNs: (off + end).Nanoseconds()})
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its children cover.
func (r *spanRecorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// write stores the spans as JSON under dir.
func (r *spanRecorder) write(dir, workload string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
