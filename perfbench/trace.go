package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Parent is the causing span (0 for a
// top-level span); spans of one request share Req. Track names the
// sequential loop a top-level span ran on (a client, the replay loop).
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Track  string        `json:"track,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Layer is the span name's prefix up to the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code paths call it unconditionally.
type Tracer struct {
	epoch  time.Time
	next   atomic.Int64
	paused atomic.Bool

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Open is a started span; End records it.
type Open struct {
	t *Tracer
	s Span
}

// Start opens a span. On a nil or paused Tracer it returns nil, and End
// on nil is a no-op.
func (t *Tracer) Start(name, track string, parent, req int64) *Open {
	if t == nil || t.paused.Load() {
		return nil
	}
	return &Open{t: t, s: Span{
		ID: t.next.Add(1), Parent: parent, Name: name, Track: track, Req: req,
		Start: time.Since(t.epoch),
	}}
}

// Pause stops recording until Resume: the untraced half of a traced run
// goes through the same instrumented code.
func (t *Tracer) Pause() { t.paused.Store(true) }

// Resume restarts recording.
func (t *Tracer) Resume() { t.paused.Store(false) }

// ID is the span's id (0 on a nil span), the parent of spans it causes.
func (o *Open) ID() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// End closes and records the span, returning its duration.
func (o *Open) End() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.Dur()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
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

// Attributed maps span id to the wall time attributed to it. Every
// instant a tree of spans covers goes to the innermost spans running then:
// to a span while none of its children runs, shared evenly when several
// run in parallel (the router's fan-out to its shards). Without parallel
// children a span's attributed time is its self time, its duration minus
// the part its children cover. A tree's attributed times sum to the length
// of the union of its spans, so a child that runs outside its parent adds
// to the total instead of hiding inside it.
func Attributed(spans []Span) map[int64]time.Duration {
	index := make(map[int64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := map[int64][]int{}
	var roots []int
	for i, s := range spans {
		if _, ok := index[s.Parent]; s.Parent != 0 && ok {
			kids[s.Parent] = append(kids[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, root := range roots {
		tree := []int{root}
		for j := 0; j < len(tree); j++ {
			tree = append(tree, kids[spans[tree[j]].ID]...)
		}
		cuts := make([]time.Duration, 0, 2*len(tree))
		for _, i := range tree {
			cuts = append(cuts, spans[i].Start, spans[i].End)
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		runs := func(i int, lo, hi time.Duration) bool { return spans[i].Start <= lo && spans[i].End >= hi }
		var inner []int
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			inner = inner[:0]
			for _, i := range tree {
				if runs(i, lo, hi) && !slices.ContainsFunc(kids[spans[i].ID], func(k int) bool { return runs(k, lo, hi) }) {
					inner = append(inner, i)
				}
			}
			for _, i := range inner {
				out[spans[i].ID] += (hi - lo) / time.Duration(len(inner))
			}
		}
	}
	return out
}

// LayerSum is the layer-sum check of one track: the time the layers
// account for under the track's top-level spans, against the wall time the
// top-level spans measured around them.
type LayerSum struct {
	Track string
	// Wall is the summed duration of the track's top-level spans: for a
	// client track, the latency the client saw.
	Wall time.Duration
	// Sum is the attributed time of every span under the track's
	// top-level spans. The top-level spans' own share is left out: it is
	// the driver's time (the client's transport and waiting, the replay
	// loop), which no layer accounts for.
	Sum time.Duration
	// ByLayer is Sum per layer.
	ByLayer map[string]time.Duration
}

// Err is |Sum - Wall| / Wall.
func (l LayerSum) Err() float64 {
	if l.Wall <= 0 {
		return 0
	}
	d := float64(l.Sum - l.Wall)
	if d < 0 {
		d = -d
	}
	return d / float64(l.Wall)
}

// LayerSums computes the layer-sum check for the named tracks.
func LayerSums(spans []Span, tracks ...string) []LayerSum {
	att := Attributed(spans)
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// root returns the top-level ancestor of s.
	root := func(s Span) Span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	out := make([]LayerSum, 0, len(tracks))
	for _, tk := range tracks {
		ls := LayerSum{Track: tk, ByLayer: map[string]time.Duration{}}
		for _, s := range spans {
			r := root(s)
			switch {
			case r.Track != tk:
			case r.ID == s.ID:
				ls.Wall += s.Dur()
			default:
				ls.Sum += att[s.ID]
				ls.ByLayer[s.Layer()] += att[s.ID]
			}
		}
		out = append(out, ls)
	}
	return out
}

// match pairs inner spans with distinct outer spans they fit, as many as
// can be paired. It returns each inner span's outer span, or -1. An inner
// span fits an outer one that starts no later; with whole, it must also
// end no later, else it must only start before the outer span ends. Among
// pairings of the same size it prefers, in order of inner start, the
// earliest-started outer span: the oldest call in flight is answered
// first.
func match(outer, inner []Span, whole bool) []int {
	byStart := make([]int, len(outer))
	var longest time.Duration
	for i := range outer {
		byStart[i] = i
		longest = max(longest, outer[i].Dur())
	}
	sort.Slice(byStart, func(a, b int) bool { return outer[byStart[a]].Start < outer[byStart[b]].Start })
	fits := make([][]int, len(inner))
	for i, in := range inner {
		// Outer spans that start after in do not fit it; those that
		// start more than the longest outer span before it have ended.
		hi := sort.Search(len(byStart), func(j int) bool { return outer[byStart[j]].Start > in.Start })
		lo := sort.Search(hi, func(j int) bool { return outer[byStart[j]].Start >= in.Start-longest })
		for _, o := range byStart[lo:hi] {
			if outer[o].End >= in.Start && (!whole || outer[o].End >= in.End) {
				fits[i] = append(fits[i], o)
			}
		}
	}
	// Augmenting paths (Kuhn's algorithm): an inner span takes a free
	// outer span, or one whose holder can move to another.
	holder := make([]int, len(outer))
	for i := range holder {
		holder[i] = -1
	}
	out := make([]int, len(inner))
	seen := make([]int, len(outer))
	var take func(i, stamp int) bool
	take = func(i, stamp int) bool {
		for _, o := range fits[i] {
			if seen[o] == stamp {
				continue
			}
			seen[o] = stamp
			if holder[o] < 0 || take(holder[o], stamp) {
				holder[o], out[i] = i, o
				return true
			}
		}
		return false
	}
	order := make([]int, len(inner))
	for i := range order {
		order[i] = i
		out[i] = -1
	}
	sort.Slice(order, func(a, b int) bool { return inner[order[a]].Start < inner[order[b]].Start })
	for n, i := range order {
		take(i, n+1)
	}
	return out
}

// reportLayerSums prints each check's attributed time by layer, records
// the worst error as trace.layer_sum_err and fails the run when a check
// misses the tolerance.
func (r *run) reportLayerSums(sums []LayerSum) {
	worst := 0.0
	for _, ls := range sums {
		layers := make([]string, 0, len(ls.ByLayer))
		for l := range ls.ByLayer {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		var b strings.Builder
		for _, l := range layers {
			share := 0.0
			if ls.Sum > 0 {
				share = float64(ls.ByLayer[l]) / float64(ls.Sum)
			}
			b.WriteString(" " + l + "=" + formatShare(share))
		}
		r.line("layer-sum %-14s wall %.3f s  layers %.3f s  err %.4f |%s",
			ls.Track, secs(ls.Wall), secs(ls.Sum), ls.Err(), b.String())
		r.check(ls.Wall > 0 && ls.Err() <= layerSumTolerance,
			"layer-sum on %s: layers %v vs wall %v (tolerance %.0f%%)",
			ls.Track, ls.Sum, ls.Wall, layerSumTolerance*100)
		worst = max(worst, ls.Err())
	}
	r.set("trace.layer_sum_err", worst)
}

func formatShare(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
