package graph

import (
	"testing"
	"testing/quick"

	"influmax/internal/rng"
)

// TestCompactReweightMatchesFullReweight: CompactReweight gives the same
// graph — both CSR views, every weight bit — as compacting verbatim and
// then applying the rule to the op targets' in-lists alone; every other
// list keeps its weights. For weighted cascade, which is idempotent, that
// is also the graph a re-derivation over all m edges gives. (LT
// normalization is not: a list normalized once can still sum past 1 in
// float64 and would be rescaled again, which is why only the lists a
// batch changes are re-derived.)
func TestCompactReweightMatchesFullReweight(t *testing.T) {
	property := func(seed uint64) bool {
		r := rng.New(rng.NewLCG(rng.Mix64(seed)))
		n := 2 + r.Intn(40)
		var es []Edge
		for i := r.Intn(5 * n); i > 0; i-- {
			es = append(es, Edge{Vertex(r.Intn(n)), Vertex(r.Intn(n)), r.Float32()})
		}
		for _, lt := range []bool{false, true} {
			g := FromEdges(n, es)
			rule := WeightedCascadeList
			full := (*Graph).AssignWeightedCascade
			if lt {
				rule, full = NormalizeLTList, (*Graph).NormalizeLT
			}
			full(g)
			var d Delta
			live := append([]Edge(nil), es...)
			for o := r.Intn(8); o >= 0; o-- {
				if len(live) > 0 && r.Intn(3) == 0 {
					i := r.Intn(len(live))
					d = append(d, DeltaOp{Kind: DeltaDelete, Src: live[i].Src, Dst: live[i].Dst})
					live = append(live[:i], live[i+1:]...)
					continue
				}
				u, v := Vertex(r.Intn(n)), Vertex(r.Intn(n))
				dup := false
				for _, e := range live {
					dup = dup || (e.Src == u && e.Dst == v)
				}
				if !dup {
					d = append(d, DeltaOp{Kind: DeltaInsert, Src: u, Dst: v, W: r.Float32()})
					live = append(live, Edge{u, v, 0})
				}
			}
			a, b := NewOverlay(g), NewOverlay(g)
			if a.Apply(d) != nil || b.Apply(d) != nil {
				t.Logf("seed %d: invalid script", seed)
				return false
			}
			got := a.CompactReweight(rule)
			want := b.Compact()
			done := map[Vertex]bool{}
			for _, op := range d {
				if !done[op.Dst] {
					done[op.Dst] = true
					rule(want.inW[want.inOff[op.Dst]:want.inOff[op.Dst+1]])
				}
			}
			want.syncOutWeights()
			requireValidCrossLinks(t, got)
			requireSameGraph(t, got, want)
			if !lt {
				full(want)
				requireSameGraph(t, got, want)
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
