package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one client
// operation share Op; Parent is the ID of the span that caused this one
// (0 for the operation's root).
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that allocates nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	op, id, parent int64
	name           string
	start          int64
}

// newOp allocates an operation ID from the same sequence as span IDs.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) start(op, parent int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{op: op, id: t.nextID.Add(1), parent: parent, name: name,
		start: int64(time.Since(t.t0))}
}

func (t *tracer) end(r spanRef) {
	if t == nil {
		return
	}
	s := span{Op: r.op, ID: r.id, Parent: r.parent, Name: r.name, Start: r.start,
		End: int64(time.Since(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (s spanStat) meanMs() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.TotalMs / float64(s.Count)
}

// selfTimes returns per-name totals, where a span's self time is its
// duration minus the part of it covered by its children.
func selfTimes(spans []span) map[string]*spanStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMs += ms(d)
		st.SelfMs += ms(d - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// transportMs is the mean client round trip minus the server handler time
// it contains, over every traced HTTP request.
func transportMs(spans []span) float64 {
	handler := make(map[int64]int64)
	for _, s := range spans {
		if s.Name == "server.ServeHTTP" {
			handler[s.Parent] += s.End - s.Start
		}
	}
	var n int
	var sum int64
	for _, s := range spans {
		if s.Name == "http.roundtrip" {
			n++
			sum += s.End - s.Start - handler[s.ID]
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeSelfTable prints the per-span and per-layer self-time tables.
func writeSelfTable(w io.Writer, stats map[string]*spanStat, wall time.Duration) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %-22s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "mean_ms")
	layers := make(map[string]float64)
	for _, n := range names {
		s := stats[n]
		layers[layerOf(n)] += s.SelfMs
		fmt.Fprintf(w, "# %-22s %8d %12.3f %12.3f %10.3f\n", n, s.Count, s.TotalMs, s.SelfMs, s.meanMs())
	}
	ls := make([]string, 0, len(layers))
	for l := range layers {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	// Concurrent client streams each add their own self time, so a
	// layer's share of the phase's wall time can pass 100%.
	fmt.Fprintf(w, "# %-22s %12s %10s\n", "layer", "self_ms", "of_wall")
	for _, l := range ls {
		fmt.Fprintf(w, "# %-22s %12.3f %9.1f%%\n", l, layers[l], 100*layers[l]/ms(int64(wall)))
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
