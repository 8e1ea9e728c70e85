package diffuse

import (
	"math"
	"slices"

	"influmax/internal/graph"
)

// ScanTable is the per-vertex in-list classification both IC kernels
// read: the scalar Sampler and the FusedSampler consult the same entry
// for every vertex they expand, so one rule decides how each list is
// scanned and the scalar kernel stays the fused kernel's byte-for-byte
// oracle. The table is per vertex only (no per-edge array), so a delta
// batch patches it at its op targets instead of rebuilding it over all
// m edges (see Patch). It is read-only once built: one table serves every
// worker's samplers. Empty for LT, whose walk reads the weights directly.
type ScanTable struct {
	// class[v] classifies v's in-edge scan. When all in-edges share one
	// threshold t (both of the paper's standard IC weightings are uniform
	// per list: constant p trivially, weighted cascade because every
	// in-edge of v carries 1/indeg(v)) the scan compares against one
	// register:
	//
	//   - t: duplicate-free list, one coin per unvisited neighbor.
	//   - t|skipMark: duplicate-free list long enough that drawing one
	//     geometric gap per fire beats one coin per edge (see skipList);
	//     invLnQ[v] holds the gap scale.
	//   - t|dupMark: the list carries parallel duplicate sources; the scan
	//     re-tests visited before each draw, which handles duplicates
	//     exactly as the scalar kernel does.
	//
	// nonUniform marks distinct per-edge weights, routed to the general
	// path, which compares each coin against its edge's own weight.
	class []uint32
	// invLnQ[v] = 1/ln(1 - t/2^24) for skip lists (zero elsewhere).
	invLnQ []float64
	// noFire[v] lets the fused kernel end a skip scan without the log
	// (see noFireBound): a draw x with x>>11+1 <= noFire[v] has a gap
	// past the end of the list. Zero outside skip lists.
	noFire []uint64
}

// Class bits of ScanTable.class. Real thresholds are at most 2^24, leaving
// the high bits free; nonUniform (all ones, dupMark included) marks
// per-edge weights. A duplicate-free coin list is the only class below
// skipMark, so the kernels' hot path tests one compare.
const (
	skipMark   = uint32(1) << 29
	dupMark    = uint32(1) << 30
	nonUniform = ^uint32(0)
)

// isSkip reports whether class c marks a skip list.
func isSkip(c uint32) bool { return c&^(skipMark-1) == skipMark }

// skipCostRatio is the cost of one geometric gap draw (a Mix64, a
// portable log and a multiply) in units of one per-edge coin (a Mix64 and
// a compare). A duplicate-free uniform list of d edges with fire
// probability p costs d coins on the coin path and about 1+p*d gap draws
// on the skip path (one per fire plus the draw that runs past the end),
// so it skips iff skipCostRatio*(1+p*d) < d. Measured on the
// soc-LiveJournal1 analog (DESIGN.md §14.5 has the sweep): skipping every
// uniform list slowed the fused kernel on the constant-p=0.06 sampling
// gate and cut its lead over scalar from 2.4x to 1.4x, since short lists
// paid a log per fire where a coin is cheaper. The fused kernel's time is
// flat from 4 to 16 and grows past 32 under weighted cascade; 16 is the
// smallest ratio that keeps its lead over the scalar kernel above the
// gate floors.
const skipCostRatio = 16

// skipList reports whether a duplicate-free list of d in-edges sharing
// threshold t takes the skip path: skipCostRatio*(1+p*d) < d with
// p = t/2^24, evaluated exactly over integers (t <= 2^24 and d < 2^31
// keep every product below 2^60).
func skipList(t uint32, d int) bool {
	return skipCostRatio*(1<<24+uint64(t)*uint64(d)) < uint64(d)<<24
}

// icThreshold converts an IC edge weight into the integer coin threshold
// equivalent to the scalar comparison. The scalar kernel keeps an edge of
// weight w when Float32() < w with Float32() = float32(k) * 2^-24 for the
// coin's top 24 bits k — both sides exact, so c < w iff k < w*2^24 iff
// k < ceil(w*2^24) over integers. float64(w)*2^24 is exact for any
// float32 w, making the ceiling exact too; clamping to [0, 2^24] covers
// w <= 0 (never fires, as c >= 0) and w >= 1 (always fires, as c < 1).
func icThreshold(w float32) uint32 {
	t := math.Ceil(float64(w) * (1 << 24))
	if !(t > 0) { // also catches NaN: scalar c < NaN is false
		return 0
	}
	if t > 1<<24 {
		return 1 << 24
	}
	return uint32(t)
}

// invLnQ returns the gap scale 1/ln(1-q) of a list with fire probability
// q = t/2^24: -0 for q = 1 (every gap is 0) and -Inf for q = 0 (the first
// gap is +Inf or NaN, both past any list's end).
func invLnQ(t uint32) float64 {
	if t == 0 {
		return math.Inf(-1)
	}
	return 1 / portableLog(1-float64(t)*(1.0/(1<<24)))
}

// skipGap turns one raw 64-bit draw x into the geometric gap of a skip
// scan: the number of edges to pass over before the next one that fires.
// With u = (x>>11 + 1)*2^-53 uniform on (0, 1] and q the list's fire
// probability, floor(ln(u)/ln(1-q)) >= g iff u <= (1-q)^g, which has
// probability (1-q)^g: every edge fires independently with probability q,
// so every unvisited neighbor still fires with exactly the coin path's
// probability (a gap that lands on a visited neighbor changes nothing).
// The result is >= 0, +Inf or NaN; callers stop unless gap < remaining.
// Both kernels call this one function on the same draws, so their gaps
// agree bit for bit.
func skipGap(x uint64, invLnQ float64) float64 {
	u := float64(x>>11+1) * (1.0 / (1 << 53))
	return float64(logNormal(u) * invLnQ)
}

// noFireBound returns the largest M such that every draw x with
// m = x>>11+1 <= M gives skipGap(x, inv) >= d: the scan of a d-edge list
// ends at that draw, wherever in the list it stands. It lets the fused
// kernel skip the log on a (1-q)^d share of its draws — about 1/e on a
// weighted-cascade list, whose scans take about two draws — and still
// take exactly the draws and decisions of skipGap, which the scalar
// kernel computes every time.
//
// Why the bound is safe: portableLog is fdlibm's log, whose error is
// below one ulp, so for u = m*2^-53 <= U = exp(d(1+2^-40)/inv) (inv < 0)
// the computed gap fl(log(u)*inv) >= d(1+2^-40)(1-2^-52)(1-2^-53) > d.
// U itself is shrunk by 2^-40 before it is scaled to an integer, which
// covers math.Exp's error and the rounding of its argument (relative
// error under 2^-42 for |argument| <= 700; below that exp underflows and
// M is 0). math.Exp may differ across GOARCH, so M may too, but only by
// draws the exact path decides the same way: the samples do not change.
func noFireBound(inv float64, d int) uint64 {
	return uint64(math.Exp(float64(d)*(1+0x1p-40)/inv) * (1 - 0x1p-40) * (1 << 53))
}

// NewScanTable classifies every in-list of g for IC sampling (an empty
// table for LT).
func NewScanTable(g *graph.Graph, model Model) *ScanTable {
	s := &ScanTable{}
	if model != IC {
		return s
	}
	n := g.NumVertices()
	s.class = make([]uint32, n)
	s.invLnQ = make([]float64, n)
	s.noFire = make([]uint64, n)
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for v := 0; v < n; v++ {
		dupFree := true
		for _, u := range g.InSources(graph.Vertex(v)) {
			if seen[u] == int32(v) {
				dupFree = false // parallel duplicate source
			}
			seen[u] = int32(v)
		}
		s.classify(g, graph.Vertex(v), dupFree)
	}
	return s
}

// Patch re-classifies the in-lists of the vertices in vs after g replaced
// the graph the table was built for, and returns the table. A delta batch
// changes only its op targets' in-lists, so patching them is equivalent to
// NewScanTable(g) at O(their degrees) instead of O(m). The table is
// updated in place: the caller must own it (no sampler may be reading it
// concurrently). Duplicates in vs are harmless.
func (s *ScanTable) Patch(g *graph.Graph, vs []graph.Vertex) *ScanTable {
	if s.class == nil {
		return s
	}
	var sorted []graph.Vertex
	for _, v := range vs {
		sorted = append(sorted[:0], g.InSources(v)...)
		slices.Sort(sorted)
		s.classify(g, v, len(slices.Compact(sorted)) == g.InDegree(v))
	}
	return s
}

// classify sets v's entry; dupFree reports whether v's in-list is free of
// parallel duplicate sources.
func (s *ScanTable) classify(g *graph.Graph, v graph.Vertex, dupFree bool) {
	_, ws := g.InNeighbors(v)
	uni := uint32(0)
	sameT := true
	for i, w := range ws {
		t := icThreshold(w)
		if i == 0 {
			uni = t
		} else if t != uni {
			sameT = false
			break
		}
	}
	s.invLnQ[v], s.noFire[v] = 0, 0
	switch {
	case !sameT:
		s.class[v] = nonUniform
	case !dupFree:
		s.class[v] = uni | dupMark
	case skipList(uni, len(ws)):
		s.class[v] = uni | skipMark
		s.invLnQ[v] = invLnQ(uni)
		s.noFire[v] = noFireBound(s.invLnQ[v], len(ws))
	default:
		s.class[v] = uni
	}
}

// portableLog is Go's pure-Go port of FreeBSD's fdlibm log (math/log.go),
// with every product that feeds an addition wrapped in an explicit
// float64 conversion so no compiler may fuse it into a multiply-add.
// math.Log is assembly on amd64 and pure Go (FMA-fusable on arm64, ppc64
// and s390x) elsewhere; sample streams built from this copy are the same
// on every GOARCH, so shards and snapshots built on different machines
// agree byte for byte.
func portableLog(x float64) float64 {
	// special cases
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}
	f1, ki := math.Frexp(x)
	return logReduced(f1, ki)
}

// logNormal is portableLog for a positive normal x (every draw of
// skipGap): the special cases cannot occur, and the reduction reads the
// exponent bits directly, exactly as math.Frexp would.
func logNormal(x float64) float64 {
	b := math.Float64bits(x)
	return logReduced(math.Float64frombits(b&(1<<52-1)|1022<<52), int(b>>52)-1022)
}

// logReduced is the body of portableLog for x = f1 * 2^ki with f1 in
// [1/2, 1).
func logReduced(f1 float64, ki int) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
		ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
		l1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
		l2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
		l3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
		l4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
		l5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
		l6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
		l7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
	)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)

	// compute
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}
