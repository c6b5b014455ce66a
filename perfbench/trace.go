package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one image or request share ID; Parent indexes the span that
// caused this one (-1 for a root). Cross-goroutine parents (the serving
// path, where the balancer and replica handlers only see a request id) are
// named by parentName and resolved by (ID, name) when the run ends.
type span struct {
	Name       string `json:"name"`
	ID         int64  `json:"id"`
	Parent     int    `json:"parent"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	parentName string
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory; a nil *tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, id int64, parent int) int {
	return t.open(span{Name: name, ID: id, Parent: parent})
}

// beginNamed opens a span whose parent is the span named parentName with
// the same id; finish resolves it.
func (t *tracer) beginNamed(name string, id int64, parentName string) int {
	return t.open(span{Name: name, ID: id, Parent: -1, parentName: parentName})
}

func (t *tracer) open(s span) int {
	if t == nil {
		return -1
	}
	s.StartNs = time.Since(t.t0).Nanoseconds()
	s.EndNs = s.StartNs
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes the span opened as h.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[h].EndNs = now
	t.mu.Unlock()
}

// finish resolves named parents and returns the spans. Call it once every
// goroutine that records spans has stopped.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		name string
		id   int64
	}
	byKey := make(map[key]int, len(t.spans))
	for i, s := range t.spans {
		byKey[key{s.Name, s.ID}] = i
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.parentName == "" {
			continue
		}
		if p, ok := byKey[key{s.parentName, s.ID}]; ok {
			s.Parent = p
		}
	}
	return t.spans
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].StartNs, p.StartNs), min(spans[k].EndNs, p.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// selfByName groups self times by span name.
func selfByName(spans []span) map[string][]time.Duration {
	self := selfTimes(spans)
	out := make(map[string][]time.Duration)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], self[i])
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing trace file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
