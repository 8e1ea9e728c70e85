package diffuse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/rng"
)

// skipGraph is the soc-LiveJournal1 analog at x0.002 under weighted
// cascade: its hub in-lists run past the skip cutoff, so both kernels take
// the skip scan there (the small random graphs of fused_test.go never do).
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

// skipLists counts g's in-lists the scan table classes as skip lists.
func skipLists(s *ScanTable) int {
	n := 0
	for _, c := range s.class {
		if isSkip(c) {
			n++
		}
	}
	return n
}

// TestSkipRule pins the cutoff skipCostRatio*(1+p*d) < d on the two
// standard weightings: a weighted-cascade list (p*d = 1) skips from 33
// in-edges on, and no list with p >= 1/16 ever skips.
func TestSkipRule(t *testing.T) {
	for _, c := range []struct {
		w    float32
		d    int
		skip bool
	}{
		{float32(1.0 / 32), 32, false},
		{float32(1.0 / 33), 33, true},
		{float32(1.0 / 3166), 3166, true},
		{0.06, 400, false},
		{0.06, 401, true},
		{1.0 / 16, 1 << 20, false},
		{0, 16, false},
		{0, 17, true},
		{1, 1 << 20, false},
	} {
		if got := skipList(icThreshold(c.w), c.d); got != c.skip {
			t.Errorf("skipList(p=%v, d=%d) = %v, want %v", c.w, c.d, got, c.skip)
		}
	}
}

// TestPortableLog checks the fdlibm copy against math.Log: within one ulp
// on the gap draw's whole domain, at the powers of two, and at the
// special cases (a subnormal against its exact value: the amd64 assembly
// math.Log does not reduce subnormals).
func TestPortableLog(t *testing.T) {
	r := rng.New(rng.NewSplitMix64(3))
	for i := 0; i < 100000; i++ {
		x := r.Uint64()
		u := float64(x>>11+1) * (1.0 / (1 << 53))
		got, want := portableLog(u), math.Log(u)
		if math.Abs(got-want) > math.Abs(want)*0x1p-52 {
			t.Fatalf("portableLog(%v) = %v, math.Log = %v", u, got, want)
		}
		if logNormal(u) != got {
			t.Fatalf("logNormal(%v) = %v != portableLog %v", u, logNormal(u), got)
		}
	}
	for e := -60; e <= 60; e++ {
		x := math.Ldexp(1, e)
		if got, want := portableLog(x), float64(e)*math.Ln2; math.Abs(got-want) > math.Abs(want)*0x1p-52 {
			t.Fatalf("portableLog(2^%d) = %v, want %v", e, got, want)
		}
	}
	if !math.IsInf(portableLog(0), -1) || !math.IsNaN(portableLog(-1)) ||
		!math.IsNaN(portableLog(math.NaN())) || !math.IsInf(portableLog(math.Inf(1)), 1) ||
		portableLog(1) != 0 || math.Abs(portableLog(5e-324)-(-1074*math.Ln2)) > 1e-12 {
		t.Fatal("portableLog special cases wrong")
	}
}

// TestNoFireBound: every draw at or under a list's noFire bound — the
// bound itself, the draws just below it, and random ones — gives a gap
// past the end of the list, so the fused kernel's log-free first draw
// decides exactly as skipGap; the bound covers (1-q)^d of the draws
// (about 1/e for a weighted-cascade list); and a draw 2^14 above it
// already fires, so it sits that close under the exact boundary.
func TestNoFireBound(t *testing.T) {
	r := rng.New(rng.NewSplitMix64(11))
	for _, c := range []struct {
		w float32
		d int
	}{
		{float32(1.0 / 33), 33},
		{float32(1.0 / 3166), 3166},
		{0.01, 200},
		{0.001, 10000},
		{0, 100},
	} {
		tt := icThreshold(c.w)
		inv := invLnQ(tt)
		m := noFireBound(inv, c.d)
		draw := func(m uint64) uint64 { return (m - 1) << 11 } // x with x>>11+1 == m
		for _, mm := range []uint64{m, m - 1, m - 2, m / 2, 1} {
			if mm >= 1 && mm <= m {
				if g := skipGap(draw(mm), inv); g < float64(c.d) {
					t.Fatalf("p=%v d=%d: draw %d under the bound %d has gap %v < d", c.w, c.d, mm, m, g)
				}
			}
		}
		for i := 0; i < 100000; i++ {
			mm := 1 + r.Uint64()%m
			if g := skipGap(draw(mm), inv); g < float64(c.d) {
				t.Fatalf("p=%v d=%d: draw %d under the bound %d has gap %v < d", c.w, c.d, mm, m, g)
			}
		}
		frac := float64(m) / (1 << 53)
		want := math.Pow(1-float64(tt)/(1<<24), float64(c.d))
		if math.Abs(frac-want) > 1e-9 {
			t.Fatalf("p=%v d=%d: bound covers %.12f of the draws, want (1-q)^d = %.12f", c.w, c.d, frac, want)
		}
		if c.w > 0 {
			above := m + 1<<14 // 2^14 draws past the bound: ~2^-37 relative
			if g := skipGap(draw(above), inv); !(g < float64(c.d)) {
				t.Fatalf("p=%v d=%d: draw %d above the bound %d still runs past the end (gap %v)", c.w, c.d, above, m, g)
			}
		}
	}
}

// TestSkipScanFusedMatchesScalar is the byte-identity oracle on graphs
// whose lists skip: fused Generate and the scalar per-sample loop must
// emit the same arena, at full, partial and multi-batch counts.
func TestSkipScanFusedMatchesScalar(t *testing.T) {
	g := skipGraph(t)
	scan := NewScanTable(g, IC)
	if n := skipLists(scan); n < 100 {
		t.Fatalf("only %d skip lists: the graph does not exercise the skip scan", n)
	}
	f := NewFusedSamplerTable(g, IC, scan)
	for _, count := range []int{1, MaxLanes - 1, 3*MaxLanes + 17, 2000} {
		base := uint64(count) * 7
		wantV, wantS := scalarGenerate(g, IC, 5, base, count)
		gotV, gotS := f.Generate(5, base, count, nil, nil)
		if !slices.Equal(gotV, wantV) || !slices.Equal(gotS, wantS) {
			t.Fatalf("count=%d: fused output != scalar", count)
		}
	}
}

// goldenSkipDigest is the SHA-256 of the first 4096 samples (sizes, then
// vertices, little-endian uint32) drawn from skipGraph at seed 2024 —
// the same on every GOARCH, because the gap draw's log is the portable
// fdlibm copy, not math.Log. A change here changes every IC sample stream
// and every snapshot built from one.
const goldenSkipDigest = "e75b9c48286f61a6ca03b25e9f90e5ac0c1852ee3b17d3c9ca6abaad56e4a841"

// TestSkipScanGolden pins the sample stream: fused and scalar kernels
// both hash to goldenSkipDigest.
func TestSkipScanGolden(t *testing.T) {
	g := skipGraph(t)
	const count = 4096
	digest := func(verts []graph.Vertex, sizes []int32) string {
		h := sha256.New()
		var buf [4]byte
		for _, s := range sizes {
			binary.LittleEndian.PutUint32(buf[:], uint32(s))
			h.Write(buf[:])
		}
		for _, v := range verts {
			binary.LittleEndian.PutUint32(buf[:], v)
			h.Write(buf[:])
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	fv, fs := NewFusedSampler(g, IC).Generate(2024, 0, count, nil, nil)
	sv, ss := scalarGenerate(g, IC, 2024, 0, count)
	if got := digest(fv, fs); got != goldenSkipDigest {
		t.Errorf("fused digest %s, want %s", got, goldenSkipDigest)
	}
	if got := digest(sv, ss); got != goldenSkipDigest {
		t.Errorf("scalar digest %s, want %s", got, goldenSkipDigest)
	}
}

// TestSkipScanInclusionFrequencies checks the skip scan's distribution
// against a per-edge reference: on a two-level graph whose in-lists are
// all forced onto the skip path (including lists that revisit the root
// and each other), each vertex's inclusion frequency over 100k samples
// from a fixed root must match a reference BFS that flips one coin of
// probability t/2^24 per unvisited neighbor, within 5 sigma. p = 1 and
// p = 0 must match exactly; the cutoff case uses the table's own skip
// class on a weighted-cascade list of 33 in-edges.
func TestSkipScanInclusionFrequencies(t *testing.T) {
	const samples = 100000
	for _, c := range []struct {
		name  string
		w     float32 // uniform weight of every edge
		d     int     // sources feeding the root
		force bool    // force every list onto the skip path
	}{
		{"p=0.01", 0.01, 200, true},
		{"p=0.3", 0.3, 40, true},
		{"p=1", 1, 20, true},
		{"p=0", 0, 20, true},
		{"cutoff", float32(1.0 / 33), 33, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := skipTestGraph(c.d, c.w)
			scan := NewScanTable(g, IC)
			root := graph.Vertex(0)
			if c.force {
				for v := range scan.class {
					if tt := scan.class[v]; tt <= 1<<24 && g.InDegree(graph.Vertex(v)) > 0 {
						scan.class[v] = tt | skipMark
						scan.invLnQ[v] = invLnQ(tt)
					}
				}
			} else if !isSkip(scan.class[root]) {
				t.Fatalf("the root's %d-edge list is not a skip list", c.d)
			}
			p := float64(icThreshold(c.w)) / (1 << 24)
			s := NewSamplerTable(g, IC, scan)
			got := inclusion(g, samples, func(r *rng.Rand, out []graph.Vertex) []graph.Vertex {
				return s.GenerateRR(r, root, out)
			}, 1)
			seen := make([]int, g.NumVertices())
			want := inclusion(g, samples, func(r *rng.Rand, out []graph.Vertex) []graph.Vertex {
				return perEdgeBFS(g, p, r, root, out, seen)
			}, 2)
			for v := range got {
				fg, fw := got[v], want[v]
				pool := (fg + fw) / 2
				if pool == 0 || pool == 1 {
					if fg != fw {
						t.Fatalf("vertex %d: skip %v, reference %v; want equal at p=%v", v, fg, fw, p)
					}
					continue
				}
				sigma := math.Sqrt(pool * (1 - pool) * 2 / samples)
				if math.Abs(fg-fw) > 5*sigma {
					t.Fatalf("vertex %d: skip frequency %.5f, reference %.5f (5 sigma = %.5f)", v, fg, fw, 5*sigma)
				}
			}
			if c.w == 1 && got[1] != 1 {
				t.Fatalf("p=1: vertex 1 included %.3f, want always", got[1])
			}
			if c.w == 0 && got[1] != 0 {
				t.Fatalf("p=0: vertex 1 included %.3f, want never", got[1])
			}
		})
	}
}

// skipTestGraph builds vertex 0 (the root) fed by sources 1..d; source i
// is fed by the root (a visited neighbor), by sources i+1 and i+2 (often
// visited by then) and by two of 3d leaves shared among the sources. Every
// edge has weight w.
func skipTestGraph(d int, w float32) *graph.Graph {
	n := 1 + d + 3*d
	b := graph.NewBuilder(n)
	for i := 1; i <= d; i++ {
		b.Add(graph.Vertex(i), 0, w)
		b.Add(0, graph.Vertex(i), w)
		for _, j := range []int{i + 1, i + 2} {
			if j <= d {
				b.Add(graph.Vertex(j), graph.Vertex(i), w)
			}
		}
		for _, leaf := range []int{1 + d + (2*i)%(3*d), 1 + d + (5*i+1)%(3*d)} {
			b.Add(graph.Vertex(leaf), graph.Vertex(i), w)
		}
	}
	return b.Build()
}

// inclusion returns each vertex's inclusion frequency over count samples
// of gen, drawn from the streams rng.Derive(seed, i).
func inclusion(g *graph.Graph, count int, gen func(*rng.Rand, []graph.Vertex) []graph.Vertex, seed uint64) []float64 {
	hits := make([]int, g.NumVertices())
	src := rng.NewSplitMix64(0)
	r := rng.New(src)
	var out []graph.Vertex
	for i := 0; i < count; i++ {
		src.Reseed(seed, uint64(i))
		out = gen(r, out[:0])
		for _, v := range out {
			hits[v]++
		}
	}
	f := make([]float64, len(hits))
	for v, h := range hits {
		f[v] = float64(h) / float64(count)
	}
	return f
}

// perEdgeBFS is the reference reverse BFS: one coin of probability p per
// unvisited in-neighbor, in list order. seen is per-vertex scratch the
// caller zeroes once; the BFS leaves it zeroed.
func perEdgeBFS(g *graph.Graph, p float64, r *rng.Rand, root graph.Vertex, out []graph.Vertex, seen []int) []graph.Vertex {
	base := len(out)
	seen[root] = 1
	out = append(out, root)
	for head := base; head < len(out); head++ {
		for _, u := range g.InSources(out[head]) {
			if seen[u] == 0 && r.Float64() < p {
				seen[u] = 1
				out = append(out, u)
			}
		}
	}
	for _, v := range out[base:] {
		seen[v] = 0
	}
	return out
}

// TestScanTablePatch: patching a table at a batch's op targets gives the
// table NewScanTable builds from scratch over the compacted graph — across
// deletions that drop a weighted-cascade hub below the skip cutoff,
// insertions that lift it back, parallel duplicates and explicit weights
// that make a list non-uniform.
func TestScanTablePatch(t *testing.T) {
	r := rng.New(rng.NewLCG(9))
	const n = 80
	b := graph.NewBuilder(n)
	for u := 1; u <= 33; u++ { // vertex 0: a 33-edge hub, just past the cutoff
		b.Add(graph.Vertex(u), 0, 0)
	}
	for i := 0; i < 600; i++ {
		b.Add(graph.Vertex(r.Intn(n)), graph.Vertex(1+r.Intn(n-1)), 0)
	}
	g := b.Build()
	g.AssignWeightedCascade()
	scan := NewScanTable(g, IC)
	if !isSkip(scan.class[0]) {
		t.Fatal("the hub is not a skip list")
	}
	wc := func(ws []float32) { graph.WeightedCascadeList(ws) }
	for step, d := range []graph.Delta{
		{{Kind: graph.DeltaDelete, Src: 1, Dst: 0}},          // hub drops to 32: coin
		{{Kind: graph.DeltaInsert, Src: 40, Dst: 0, W: 0.5}}, // back to 33: skip
		{{Kind: graph.DeltaInsert, Src: 41, Dst: 0, W: 0.5}, {Kind: graph.DeltaInsert, Src: 2, Dst: 5, W: 0.5}},
		{{Kind: graph.DeltaInsert, Src: 0, Dst: 7, W: 0.5}, {Kind: graph.DeltaDelete, Src: 0, Dst: 7}},
	} {
		ov := graph.NewOverlay(g)
		if err := ov.Apply(d); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g = ov.CompactReweight(wc)
		var targets []graph.Vertex
		for _, op := range d {
			targets = append(targets, op.Dst)
		}
		scan.Patch(g, targets)
		want := NewScanTable(g, IC)
		if !slices.Equal(scan.class, want.class) || !slices.Equal(scan.invLnQ, want.invLnQ) ||
			!slices.Equal(scan.noFire, want.noFire) {
			t.Fatalf("step %d: patched table != rebuilt table", step)
		}
	}
	// Explicit weights: a list with two weights becomes non-uniform, and a
	// parallel duplicate source marks it.
	ov := graph.NewOverlay(g)
	if err := ov.Apply(graph.Delta{{Kind: graph.DeltaInsert, Src: 50, Dst: 3, W: 0.9}}); err != nil {
		t.Fatal(err)
	}
	g = ov.Compact()
	scan.Patch(g, []graph.Vertex{3})
	if want := NewScanTable(g, IC); !slices.Equal(scan.class, want.class) || scan.class[3] != nonUniform {
		t.Fatalf("explicit insert: class %x, want nonUniform and the rebuilt table", scan.class[3])
	}
	dup := graph.FromEdges(3, []graph.Edge{{Src: 1, Dst: 0, W: 0.5}, {Src: 1, Dst: 0, W: 0.5}, {Src: 2, Dst: 0, W: 0.5}})
	s := NewScanTable(dup, IC).Patch(dup, []graph.Vertex{0})
	if s.class[0] != icThreshold(0.5)|dupMark {
		t.Fatalf("duplicate sources: class %x, want the dup mark", s.class[0])
	}
}
