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

// A span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Times are offsets from the recorder's epoch.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the causing span; -1 for a root
	Op     int           `json:"op"`     // operation the span belongs to
}

// recorder keeps spans in memory for the whole run; they are written out
// once, at the end. A nil *recorder records nothing, so untraced passes
// run the same code with no tracing cost beyond a nil check.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id, to be passed to end and used as
// the parent of spans it causes.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// mark returns the number of spans recorded so far; spans from a mark
// on belong to one pass.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns the summed self time per span name over spans
// [from, len).
func (r *recorder) selfTimes(from int) map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return selfTimes(r.spans, from)
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per name, each span's duration minus the part of its
// interval covered by the union of its children. Children may nest,
// sit side by side, overlap each other (goroutines running during their
// parent's sibling, as collector ingest does during a router flush), or
// outlive their parent; only the covered part inside the parent counts.
// Spans before from, and spans whose parent is before from, are
// ignored; an unfinished span is an error in the caller and panics.
func selfTimes(spans []span, from int) map[string]time.Duration {
	children := make(map[int][]int)
	for i := from; i < len(spans); i++ {
		if p := spans[i].Parent; p >= from {
			children[p] = append(children[p], i)
		}
	}
	out := make(map[string]time.Duration)
	for i := from; i < len(spans); i++ {
		s := spans[i]
		if s.End < 0 {
			panic(fmt.Sprintf("perfbench: span %q never ended", s.Name))
		}
		out[s.Name] += s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the given spans' intervals
// clipped to [lo, hi].
func covered(spans []span, ids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
