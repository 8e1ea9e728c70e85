package main

import (
	"testing"
	"time"
)

const ms = time.Millisecond

func TestAttributedIsSelfTimeWithoutParallelChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client.q", Track: "c", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "server.h", Start: 10 * ms, End: 60 * ms},
		{ID: 3, Parent: 2, Name: "select.x", Start: 20 * ms, End: 50 * ms},
	}
	att := Attributed(spans)
	want := map[int64]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 30 * ms}
	for id, w := range want {
		if att[id] != w {
			t.Fatalf("attributed(%d) = %v, want %v", id, att[id], w)
		}
	}
}

// TestAttributedSharesParallelChildren is the router's fan-out: three
// shard calls run at once. Duration minus child coverage would count the
// 30ms they share three times; attribution splits it.
func TestAttributedSharesParallelChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client.q", Track: "c", Start: 0, End: 50 * ms},
		{ID: 2, Parent: 1, Name: "router.handler", Start: 5 * ms, End: 45 * ms},
		{ID: 3, Parent: 2, Name: "cluster.purge", Start: 10 * ms, End: 40 * ms},
		{ID: 4, Parent: 2, Name: "cluster.purge", Start: 10 * ms, End: 40 * ms},
		{ID: 5, Parent: 2, Name: "cluster.purge", Start: 10 * ms, End: 40 * ms},
	}
	att := Attributed(spans)
	if att[3] != 10*ms || att[2] != 10*ms {
		t.Fatalf("attributed %v, want 10ms per shard call and 10ms to the router", att)
	}
	ls := LayerSums(spans, "c")[0]
	if ls.Wall != 50*ms || ls.Sum != 40*ms || ls.ByLayer["cluster"] != 30*ms {
		t.Fatalf("layer sum %+v, want wall 50ms, layers 40ms of which cluster 30ms", ls)
	}
}

// TestLayerSumFailsOnUncountedTime: a client waited 100ms for a handler
// that ran 80ms; the 20ms no layer accounts for fails the check.
func TestLayerSumFailsOnUncountedTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client.q", Track: "c", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "server.handler", Start: 10 * ms, End: 90 * ms},
		{ID: 3, Name: "other.x", Track: "elsewhere", Start: 0, End: 500 * ms},
	}
	ls := LayerSums(spans, "c")[0]
	if ls.Wall != 100*ms || ls.Sum != 80*ms || ls.Err() <= layerSumTolerance {
		t.Fatalf("layer sum %+v err %v passes; want wall 100ms, layers 80ms, a failure", ls, ls.Err())
	}
}

// TestLayerSumFailsOnDoubleCountedTime: a span parented to the wrong
// request runs past its parent, and the time it adds fails the check.
func TestLayerSumFailsOnDoubleCountedTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client.q", Track: "c", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "server.handler", Start: 0, End: 100 * ms},
		{ID: 3, Parent: 2, Name: "select.x", Start: 50 * ms, End: 130 * ms},
	}
	ls := LayerSums(spans, "c")[0]
	if ls.Sum != 130*ms || ls.Err() <= layerSumTolerance {
		t.Fatalf("layer sum %+v err %v passes; want layers 130ms against wall 100ms, a failure", ls, ls.Err())
	}
}

// TestMatchNestedIntervals: a short query runs inside a long one. Both
// handlers contain the short session; only the long handler contains the
// long one, so the short session must go to the short handler.
func TestMatchNestedIntervals(t *testing.T) {
	handlers := []Span{{ID: 10, Start: 0, End: 30 * ms}, {ID: 11, Start: 1 * ms, End: 5 * ms}}
	sessions := []Span{{ID: 2, Start: 2 * ms, End: 29 * ms}, {ID: 1, Start: 2 * ms, End: 4 * ms}, {ID: 3, Start: 40 * ms, End: 41 * ms}}
	got := match(handlers, sessions, true)
	if got[0] != 0 || got[1] != 1 || got[2] != -1 {
		t.Fatalf("match = %v, want [0 1 -1]", got)
	}
}

func TestTracerNilAndPaused(t *testing.T) {
	var nilTr *Tracer
	sp := nilTr.Start("x.y", "t", 0, 0)
	if sp.ID() != 0 || sp.End() != 0 || nilTr.Spans() != nil {
		t.Fatal("a nil tracer recorded something")
	}
	tr := NewTracer()
	tr.Pause()
	tr.Start("x.y", "t", 0, 0).End()
	tr.Resume()
	outer := tr.Start("x.outer", "t", 0, 7)
	tr.Start("x.inner", "", outer.ID(), 7).End()
	outer.End()
	got := tr.Spans()
	if len(got) != 2 || got[0].Parent != got[1].ID || got[1].Req != 7 {
		t.Fatalf("spans %+v", got)
	}
}
