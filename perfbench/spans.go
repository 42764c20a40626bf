package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Op groups the spans
// of one benchmark operation (a job or a request); Parent is the span
// that waits on this one (0 for a root, and for cluster-internal
// requests, whose caller is not known).
type span struct {
	ID     int64
	Parent int64
	Op     int64
	Name   string
	Lane   int
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID; finish closes it.
func (t *tracer) begin(name string, parent, op int64, lane int) int64 {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Op: op, Name: name, Lane: lane, Start: now, End: -1})
	return t.next
}

func (t *tracer) finish(id int64) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeChrome writes spans in the Chrome trace-event format, which
// Perfetto opens directly.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// selfTimes attributes every instant of the traced window to the spans
// active then that have no active child: a span that waits on a child
// (a job on its simulation, a client on the node serving it) owns none
// of that wait. When several such spans overlap (concurrent workers,
// clients, nodes) they share the instant evenly. With strictly nested
// spans on one lane this is the usual self time: a span's duration
// minus what its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	type edge struct {
		at    time.Duration
		open  bool
		index int
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		edges = append(edges, edge{s.Start, true, i}, edge{s.End, false, i})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return !edges[a].open && edges[b].open // close before open
	})
	self := make(map[string]time.Duration)
	active := make(map[int]bool)
	var prev time.Duration
	for _, e := range edges {
		if d := e.at - prev; d > 0 && len(active) > 0 {
			waiting := make(map[int64]bool)
			for i := range active {
				waiting[spans[i].Parent] = true
			}
			var owners []int
			for i := range active {
				if !waiting[spans[i].ID] {
					owners = append(owners, i)
				}
			}
			sort.Ints(owners)
			share := d / time.Duration(len(owners))
			rest := d - share*time.Duration(len(owners))
			for k, i := range owners {
				add := share
				if k == 0 {
					add += rest
				}
				self[spans[i].Name] += add
			}
		}
		prev = e.at
		if e.open {
			active[e.index] = true
		} else {
			delete(active, e.index)
		}
	}
	return self
}

// finishTrace writes the spans inside the root span to path as a
// Chrome trace and prints the layer share table (self time per span
// name) on stderr.
func finishTrace(t *tracer, root int64, path string) error {
	spans := withinRoot(t.closed(), root)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var wall time.Duration
	if len(spans) > 0 {
		wall = spans[0].End - spans[0].Start
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintf(os.Stderr, "perfbench: layer shares of %.3fs traced wall time (%d spans, trace %s)\n",
		wall.Seconds(), len(spans), path)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %9.3fs %6.2f%%\n", n, self[n].Seconds(), 100*self[n].Seconds()/wall.Seconds())
	}
	return nil
}

// withinRoot returns the root span first, then the other spans that
// overlap it, clipped to it: requests served before the traced phase
// began, or background work that outlives it, fall outside the traced
// wall time.
func withinRoot(spans []span, root int64) []span {
	var r *span
	for i := range spans {
		if spans[i].ID == root {
			r = &spans[i]
		}
	}
	if r == nil {
		return nil
	}
	out := []span{*r}
	for _, s := range spans {
		if s.ID == root || s.End <= r.Start || s.Start >= r.End {
			continue
		}
		s.Start = max(s.Start, r.Start)
		s.End = min(s.End, r.End)
		out = append(out, s)
	}
	return out
}
