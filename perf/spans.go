package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of the traced pass. Spans are recorded by
// the benchmark itself, around its own calls into each layer's public
// functions; nothing inside internal/ is instrumented.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced pass pays one nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent, request int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent,
		Request: request, Name: name, StartNS: now})
	return len(r.spans)
}

// end closes the span start returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its direct children cover. Children of one parent never
// overlap here (each is opened after the previous one closed), so the
// covered part is the sum of the children's durations.
func selfTimes(spans []span) map[string]time.Duration {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - child[s.ID])
	}
	return out
}

// write stores the spans as JSON, creating the directory if needed.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
