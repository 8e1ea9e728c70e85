package imm

import (
	"fmt"

	"influmax/internal/graph"
	"influmax/internal/par"
	"influmax/internal/rrr"
)

// SelectSeeds runs the multithreaded greedy max-coverage of Algorithm 4
// over the collection with p workers and returns the k seeds in selection
// order together with the number of samples they cover.
//
// It builds the inverted incidence index of the collection and runs the
// indexed selection, which purges covered samples by direct lookup instead
// of the paper's per-seed scan over all samples; the output is byte-
// identical to SelectSeedsScan (the scan path is kept for exactly that
// regression check). Callers that already hold an Index — or that want the
// build timed separately, as Run does — use SelectSeedsIndexed directly.
func SelectSeeds(col *rrr.Collection, k, p int) ([]graph.Vertex, int64) {
	return SelectSeedsIndexed(col, rrr.BuildIndex(col, p), k, p)
}

// SelectSeedsIndexed is greedy max-coverage with index-driven purging: the
// interval-owned counters, deterministic parallel argmax and padding-seed
// behaviour of Algorithm 4 are unchanged, but when a seed is chosen its
// uncovered samples come straight from idx.SamplesOf instead of a
// membership test against every sample, cutting the per-iteration cost from
// O(|R|) sample visits to O(degree of the seed). idx must have been built
// from col (or an identical collection). It is the greedy engine over the
// flat source with a zero-value Query.
func SelectSeedsIndexed(col *rrr.Collection, idx *rrr.Index, k, p int) ([]graph.Vertex, int64) {
	res, _ := Greedy(newFlatSource(col, idx, nil, nil, p), col.NumVertices(), Query{K: k}, p, nil)
	return res.Seeds, res.Covered
}

// SelectSeedsSketch is SelectSeedsIndexed over a resident byte-coded
// sketch: col and idx are shared, immutable state (a serving process keeps
// one copy for all queries), and every call works exclusively on its own
// copy-on-read state — counters seeded from the index's incidence degrees
// and a fresh covered bitset — so any number of concurrent calls never
// mutate the sketch or each other. The output is byte-identical to
// SelectSeedsIndexed for the same samples at any k and worker count,
// whatever the store's labeling: counter decrements commute, so the order
// members decode in is irrelevant (the §13 determinism argument).
func SelectSeedsSketch(col *rrr.CodedCollection, idx *rrr.Index, k, p int) ([]graph.Vertex, int64) {
	res, _ := Greedy(newCodedSource(col, idx, nil, nil, p), col.NumVertices(), Query{K: k}, p, nil)
	return res.Seeds, res.Covered
}

// indexSource is what the two local coverage sources share: the incidence
// index that turns a seed into its samples, the query-private covered
// bitset, and the audience filter.
type indexSource struct {
	idx      *rrr.Index
	roots    []graph.Vertex
	audience []graph.Vertex
	count, p int
	covered  rrr.Bitset
	matched  []int32
}

func newIndexSource(idx *rrr.Index, roots, audience []graph.Vertex, count, p int) indexSource {
	return indexSource{idx: idx, roots: roots, audience: audience, count: count, p: workers(idx.NumVertices(), p)}
}

// start opens a fresh covered set. Under an audience filter it pre-covers
// every sample rooted outside the audience, so neither the counts nor the
// purges ever see it, and returns the excluded mask for counting (nil
// without a filter) with the eligible sample count.
func (s *indexSource) start() ([]bool, int64, error) {
	s.covered = rrr.NewBitset(s.count)
	if len(s.audience) == 0 {
		return nil, int64(s.count), nil
	}
	if len(s.roots) != s.count {
		return nil, 0, fmt.Errorf("imm: audience query needs %d sample roots, have %d", s.count, len(s.roots))
	}
	inAud := make([]bool, s.idx.NumVertices())
	for _, v := range s.audience {
		inAud[v] = true
	}
	excluded := make([]bool, s.count)
	var eligible int64
	for j, r := range s.roots {
		if inAud[r] {
			eligible++
			continue
		}
		excluded[j] = true
		s.covered.Set(j)
	}
	return excluded, eligible, nil
}

// take marks v's uncovered samples covered, read off its incidence list,
// and returns them. It runs before a purge's parallel region, so the
// workers' reads of the bitset are race-free.
func (s *indexSource) take(v graph.Vertex) []int32 {
	s.matched = s.matched[:0]
	for _, j := range s.idx.SamplesOf(v) {
		if s.covered.Get(int(j)) {
			continue
		}
		s.covered.Set(int(j))
		s.matched = append(s.matched, j)
	}
	return s.matched
}

// flatSource counts and purges over a flat collection, each worker over
// its own vertex interval, so writes never conflict.
type flatSource struct {
	indexSource
	col *rrr.Collection
}

func newFlatSource(col *rrr.Collection, idx *rrr.Index, roots, audience []graph.Vertex, p int) *flatSource {
	return &flatSource{newIndexSource(idx, roots, audience, col.Count(), p), col}
}

func (s *flatSource) Start(counter []int64) (int64, error) {
	excluded, eligible, err := s.start()
	if err != nil {
		return 0, err
	}
	par.Run(s.p, func(rank int) {
		vl, vh := par.Interval(len(counter), s.p, rank)
		s.col.CountRange(counter, excluded, graph.Vertex(vl), graph.Vertex(vh))
	})
	return eligible, nil
}

func (s *flatSource) Purge(v graph.Vertex, counter []int64) error {
	col, matched := s.col, s.take(v)
	par.Run(s.p, func(rank int) {
		vl, vh := par.Interval(len(counter), s.p, rank)
		for _, j := range matched {
			for _, u := range col.RangeOf(int(j), graph.Vertex(vl), graph.Vertex(vh)) {
				counter[u]--
			}
		}
	})
	return nil
}

// codedSource counts and purges over a byte-coded collection. Without an
// audience the counts are the index's degree column, with no decode at
// all. Otherwise each worker decodes its share of the samples into a
// private column (lazily allocated, reused across purges), so the varint
// decode parallelizes, and an interval-owned pass folds the columns into
// the counters with no atomics. Integer sums commute, so the counters —
// and the seeds — match any other decode order (the §13 determinism
// argument).
type codedSource struct {
	indexSource
	col  *rrr.CodedCollection
	decs [][]int64
}

func newCodedSource(col *rrr.CodedCollection, idx *rrr.Index, roots, audience []graph.Vertex, p int) *codedSource {
	s := &codedSource{indexSource: newIndexSource(idx, roots, audience, col.Count(), p), col: col}
	s.decs = make([][]int64, s.p)
	return s
}

func (s *codedSource) Start(counter []int64) (int64, error) {
	excluded, eligible, err := s.start()
	if err != nil {
		return 0, err
	}
	if excluded == nil {
		par.Run(s.p, func(rank int) {
			vl, vh := par.Interval(len(counter), s.p, rank)
			for v := vl; v < vh; v++ {
				counter[v] = s.idx.Degree(graph.Vertex(v))
			}
		})
		return eligible, nil
	}
	par.ForEach(s.count, s.p, func(rank, lo, hi int) {
		d := s.column(rank, len(counter))
		for j := lo; j < hi; j++ {
			if !excluded[j] {
				s.col.AccumMembers(j, d)
			}
		}
	})
	s.fold(counter, 1)
	return eligible, nil
}

func (s *codedSource) Purge(v graph.Vertex, counter []int64) error {
	matched := s.take(v)
	par.ForEach(len(matched), s.p, func(rank, lo, hi int) {
		d := s.column(rank, len(counter))
		for _, j := range matched[lo:hi] {
			s.col.AccumMembers(int(j), d)
		}
	})
	s.fold(counter, -1)
	return nil
}

func (s *codedSource) column(rank, n int) []int64 {
	if s.decs[rank] == nil {
		s.decs[rank] = make([]int64, n)
	}
	return s.decs[rank]
}

// fold adds sign times every worker column into counter, each worker over
// its own vertex interval, and zeroes the columns for reuse.
func (s *codedSource) fold(counter []int64, sign int64) {
	par.Run(s.p, func(rank int) {
		vl, vh := par.Interval(len(counter), s.p, rank)
		for _, d := range s.decs {
			if d == nil {
				continue
			}
			for v := vl; v < vh; v++ {
				if d[v] != 0 {
					counter[v] += sign * d[v]
					d[v] = 0
				}
			}
		}
	})
}

// SelectSeedsScan is the paper's Algorithm 4 verbatim: every purge
// re-scans the whole collection for samples containing the chosen seed
// (worker 0 records the matches — "if i=0 then R <- R\{Rj}"). Kept as the
// reference the indexed path must match byte-for-byte, and as the old side
// of BenchmarkSelectSeeds.
func SelectSeedsScan(col *rrr.Collection, k, p int) ([]graph.Vertex, int64) {
	n := col.NumVertices()
	if n == 0 {
		return nil, 0
	}
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	if p > n {
		p = n
	}
	counter := make([]int64, n)
	covered := rrr.NewBitset(col.Count())

	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		col.CountRange(counter, nil, graph.Vertex(vl), graph.Vertex(vh))
	})

	seeds := make([]graph.Vertex, 0, k)
	chosen := make([]bool, n)
	var coveredCount int64

	bests := make([]int64, p)
	args := make([]int, p)
	var matched []int32
	for len(seeds) < k {
		par.Run(p, func(rank int) {
			vl, vh := par.Interval(n, p, rank)
			best, arg := int64(-1), -1
			for v := vl; v < vh; v++ {
				if chosen[v] {
					continue
				}
				if counter[v] > best {
					best, arg = counter[v], v
				}
			}
			bests[rank], args[rank] = best, arg
		})
		_, arg := par.ReduceMax(bests, args)
		if arg < 0 {
			break
		}
		v := graph.Vertex(arg)
		gain := counter[v]
		seeds = append(seeds, v)
		chosen[arg] = true
		coveredCount += gain
		if gain == 0 {
			continue
		}
		// Purge the samples containing v: every worker decrements the
		// counters of its own vertex interval for each matching sample;
		// worker 0 additionally records the matches, which are marked
		// covered after the barrier.
		matched = matched[:0]
		par.Run(p, func(rank int) {
			vl, vh := par.Interval(n, p, rank)
			for j := 0; j < col.Count(); j++ {
				if covered.Get(j) || !col.Contains(j, v) {
					continue
				}
				for _, u := range col.RangeOf(j, graph.Vertex(vl), graph.Vertex(vh)) {
					counter[u]--
				}
				if rank == 0 {
					matched = append(matched, int32(j))
				}
			}
		})
		for _, j := range matched {
			covered.Set(int(j))
		}
	}
	return seeds, coveredCount
}

// SelectSeedsNaive is the baseline's seed selection: it exploits the
// bidirectional hypergraph (vertex -> samples incidence) to purge covered
// samples by direct lookup, the strategy of the reference implementation.
// Sequential, as the baseline is.
func SelectSeedsNaive(store *rrr.NaiveStore, k int) ([]graph.Vertex, int64) {
	n := store.NumVertices()
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		deg[v] = int64(len(store.SamplesOf(graph.Vertex(v))))
	}
	covered := make([]bool, store.Count())
	chosen := make([]bool, n)
	seeds := make([]graph.Vertex, 0, k)
	var coveredCount int64
	for len(seeds) < k {
		best, arg := int64(-1), -1
		for v := 0; v < n; v++ {
			if !chosen[v] && deg[v] > best {
				best, arg = deg[v], v
			}
		}
		if arg < 0 {
			break
		}
		v := graph.Vertex(arg)
		seeds = append(seeds, v)
		chosen[arg] = true
		coveredCount += deg[v]
		for _, j := range store.SamplesOf(v) {
			if covered[j] {
				continue
			}
			covered[j] = true
			for _, u := range store.Sample(int(j)) {
				deg[u]--
			}
		}
	}
	return seeds, coveredCount
}
