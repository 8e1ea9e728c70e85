package imm

import (
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/rrr"
)

// skipGraph is the soc-LiveJournal1 analog at x0.002 under weighted
// cascade: its hub in-lists run past the skip cutoff, so both sampling
// kernels take the skip scan there (the small graphs of the other
// equivalence suites never do).
func skipGraph(t testing.TB) *graph.Graph {
	t.Helper()
	d, err := gen.ByName("soc-LiveJournal1")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(0.002, 1)
	g.AssignWeightedCascade()
	return g
}

// TestSkipScanCollectionsMatch is the byte-identity oracle of the skip
// scan at the BatchSampler level: the fused kernel's collection equals
// the scalar kernel's at 1, 2 and 4 workers under both schedules, and a
// leap-frog run, which keeps the scalar kernel whatever kernel is asked
// for, gives the same collection both ways.
func TestSkipScanCollectionsMatch(t *testing.T) {
	g := skipGraph(t)
	const count = 3000
	sample := func(opt Options) *rrr.Collection {
		col := rrr.NewCollection(g.NumVertices())
		bs := NewBatchSampler(g, opt)
		for done := 0; done < count; done += 1000 {
			bs.Sample(col, 1000)
		}
		return col
	}
	ref := sample(Options{Model: diffuse.IC, Workers: 1, Seed: 17, Kernel: KernelScalar})
	for _, w := range []int{1, 2, 4} {
		for _, sched := range []Schedule{ScheduleStatic, ScheduleDynamic} {
			for _, k := range []Kernel{KernelScalar, KernelFused} {
				col := sample(Options{Model: diffuse.IC, Workers: w, Seed: 17, Kernel: k, Schedule: sched})
				if !sameCollection(ref, col) {
					t.Fatalf("workers=%d schedule=%v kernel=%v: collection != single-worker scalar", w, sched, k)
				}
			}
		}
	}
	scalar := sample(Options{Model: diffuse.IC, Workers: 2, Seed: 17, Kernel: KernelScalar, RNG: LeapFrog})
	fused := sample(Options{Model: diffuse.IC, Workers: 2, Seed: 17, Kernel: KernelFused, RNG: LeapFrog})
	if !sameCollection(scalar, fused) {
		t.Fatal("leap-frog: fused request != scalar")
	}
	if bad := scalar.CheckInvariants(); bad != -1 {
		t.Fatalf("leap-frog: invariants broken at sample %d", bad)
	}
}

// TestSkipScanDeltaMatchesCold: on the same graph, a weighted-cascade
// delta sketch whose batches move lists across the skip cutoff (a hub
// target, a mid-degree target, an insert that is deleted again) keeps a
// collection byte-identical to regenerating every sample cold on the
// mutated graph — so each invalidated sample equals its cold build, and
// the patched scan table equals a fresh one wherever a sample looks.
func TestSkipScanDeltaMatchesCold(t *testing.T) {
	g := skipGraph(t)
	opt := Options{K: 10, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 23}
	dyn, _, err := NewDynamicSketch(g, opt, WeightsWC)
	if err != nil {
		t.Fatal(err)
	}
	hub := graph.Vertex(0)
	for v := 1; v < g.NumVertices(); v++ {
		if g.InDegree(graph.Vertex(v)) > g.InDegree(hub) {
			hub = graph.Vertex(v)
		}
	}
	hubSrcs := g.InSources(hub)
	fresh := freshEdges(t, g, 3)
	var invalidated int64
	for i, d := range []graph.Delta{
		{{Kind: graph.DeltaDelete, Src: hubSrcs[0], Dst: hub}},
		{fresh[0], {Kind: graph.DeltaInsert, Src: fresh[1].Src, Dst: hub, W: 0.06}},
		{fresh[2], {Kind: graph.DeltaDelete, Src: fresh[2].Src, Dst: fresh[2].Dst}},
		{{Kind: graph.DeltaDelete, Src: hubSrcs[1], Dst: hub}, {Kind: graph.DeltaDelete, Src: fresh[0].Src, Dst: fresh[0].Dst}},
	} {
		res, err := dyn.ApplyDelta(d)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		invalidated += res.SamplesInvalidated
	}
	if invalidated == 0 {
		t.Fatal("no sample was invalidated: the batches did not touch the sketch")
	}
	cold := coldResample(dyn.Graph(), diffuse.IC, opt.Seed, dyn.Collection().Count())
	sameCollections(t, "skip-scan WC delta", dyn.Collection(), cold)
}
