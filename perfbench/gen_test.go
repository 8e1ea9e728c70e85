package main

import (
	"reflect"
	"testing"

	"influmax/internal/gen"
	"influmax/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.RMAT(2000, 16000, 0.57, 0.19, 0.19, 7)
	g.AssignWeightedCascade()
	return g
}

// queryMix generates the first count requests of newQueryStream.
func queryMix(seed uint64, g *graph.Graph, spec mixSpec, count int) []request {
	s := newQueryStream(seed, g, spec)
	out := make([]request, count)
	for i := range out {
		rq, _ := s.Next()
		out[i] = *rq
	}
	return out
}

func TestQueryMixSameSeedSameStream(t *testing.T) {
	g := testGraph(t)
	for _, spec := range []mixSpec{serveMix, routedMix, plainMix} {
		a := queryMix(11, g, spec, 400)
		b := queryMix(11, g, spec, 400)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("mix %+v: seed 11 gave two different streams", spec)
		}
		c := queryMix(12, g, spec, 400)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("mix %+v: seeds 11 and 12 gave the same stream", spec)
		}
	}
}

func TestQueryMixShapes(t *testing.T) {
	g := testGraph(t)
	reqs := queryMix(3, g, serveMix, 4000)
	seen := map[reqKind]int{}
	sizes := map[int]bool{}
	for _, rq := range reqs {
		seen[rq.Kind]++
		size := rq.K
		switch rq.Kind {
		case reqBudgeted:
			size = int(rq.Budget)
		case reqBlocked:
			size = len(rq.Blocked)
		case reqSpread:
			size = len(rq.Seeds)
		}
		if size < 1 || size > serveMix.KMax || rq.K > serveMix.KMax {
			t.Fatalf("%s request of size %d, k %d outside [1, %d]", rq.Kind, size, rq.K, serveMix.KMax)
		}
		sizes[size] = true
		if rq.Kind == reqTargeted && len(rq.Audience) < g.NumVertices()/50 {
			t.Fatalf("audience of %d vertices", len(rq.Audience))
		}
	}
	if len(sizes) != serveMix.KMax {
		t.Fatalf("sizes cover %d of 1..%d", len(sizes), serveMix.KMax)
	}
	for k := reqKind(0); k < numReqKinds; k++ {
		want := serveMix.Weights[k] * float64(len(reqs))
		if got := float64(seen[k]); got < 0.8*want || got > 1.2*want {
			t.Fatalf("serve mix has %v %s requests, want about %v: %v", got, k, want, seen)
		}
	}
	for _, rq := range queryMix(3, g, routedMix, 2000) {
		if rq.Kind == reqSpread || rq.K > routedMix.KMax {
			t.Fatalf("routed mix produced %s k=%d", rq.Kind, rq.K)
		}
	}
}

func TestDeltaStreamSameSeedSameStream(t *testing.T) {
	g := testGraph(t)
	a := deltaStream(5, g, 30, 8)
	if b := deltaStream(5, g, 30, 8); !reflect.DeepEqual(a, b) {
		t.Fatal("seed 5 gave two different delta streams")
	}
	if c := deltaStream(6, g, 30, 8); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 5 and 6 gave the same delta stream")
	}
}

// TestDeltaStreamAppliesInAnyOrder applies the stream with its batches
// reversed, which no correct application order can beat for conflicts:
// every op must still be valid, and the edge count must stay level.
func TestDeltaStreamAppliesInAnyOrder(t *testing.T) {
	g := testGraph(t)
	stream := deltaStream(9, g, 40, 8)
	for _, order := range [][]graph.Delta{stream, reversed(stream)} {
		cur := g
		for i, d := range order {
			ov := graph.NewOverlay(cur)
			if err := ov.Apply(d); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			cur = ov.Compact()
		}
		if cur.NumEdges() != g.NumEdges() {
			t.Fatalf("edge count moved from %d to %d", g.NumEdges(), cur.NumEdges())
		}
	}
}

func reversed(ds []graph.Delta) []graph.Delta {
	out := make([]graph.Delta, len(ds))
	for i, d := range ds {
		out[len(ds)-1-i] = d
	}
	return out
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Fatalf("p50 = %v, want 500", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Fatalf("p99 = %v, want 990 (ten samples beyond it)", got)
	}
	for n, want := range map[int]float64{1000: 0.99, 999: 0.9, 100: 0.9, 99: 0.5, 20: 0.5, 19: 1, 5: 1} {
		if got := tailQuantile(n); got != want {
			t.Fatalf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}
