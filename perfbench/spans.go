package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer, recorded from
// the benchmark's side of the seam. Spans of one frame (ingest-tcp) or
// one device (fleet-arq) share an ID; Parent indexes the enclosing span,
// -1 for a root.
type span struct {
	Name       string
	ID         uint64
	Parent     int32
	Start, End int64 // nanoseconds since the recorder's base
}

// spanRecorder keeps spans in memory, bounded by a fixed capacity, and
// writes them out when the run ends. Callers sample which frames or
// devices they record; the bound only guards memory.
type spanRecorder struct {
	base time.Time

	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func newSpanRecorder(capacity int) *spanRecorder {
	return &spanRecorder{base: time.Now(), spans: make([]span, 0, capacity)}
}

// now is the recorder clock.
func (r *spanRecorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.base))
}

// add records a span and returns its index (-1 when the recorder is full
// or nil, which is how untraced passes run).
func (r *spanRecorder) add(name string, id uint64, parent int32, start, end int64) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return int32(len(r.spans) - 1)
}

// end closes a span opened with an end of 0.
func (r *spanRecorder) end(i int32, end int64) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].End = end
	r.mu.Unlock()
}

// selfTimes returns, per span name, the count, total duration and self
// time (duration minus the time its direct children cover).
func (r *spanRecorder) selfTimes() map[string]*selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*selfTime{}
	for i, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		st.n++
		st.total += s.End - s.Start
		st.self += s.End - s.Start - child[i]
	}
	return out
}

type selfTime struct {
	n           int
	total, self int64
}

// summary prints the per-name self-time table.
func (r *spanRecorder) summary(w io.Writer, workload string) {
	st := r.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans %s: %d recorded, %d dropped at capacity\n", workload, len(r.spans), r.dropped)
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "  %-28s n=%-8d mean %10.0f ns  self mean %10.0f ns\n",
			n, s.n, float64(s.total)/float64(s.n), float64(s.self)/float64(s.n))
	}
}

// writeFile writes the spans as one JSON array, one span per line.
func (r *spanRecorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	fmt.Fprintln(w, "[")
	for i, s := range r.spans {
		sep := ","
		if i == len(r.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}%s\n",
			s.Name, s.ID, s.Parent, s.Start, s.End, sep)
	}
	fmt.Fprintln(w, "]")
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
