package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/mpi"
	"influmax/internal/par"
	"influmax/internal/rng"
	"influmax/internal/rrr"
	"influmax/internal/trace"
)

// This file implements the paper's first future-work item: "extension to
// settings where the input graph is also partitioned (in addition to R)".
//
// Decomposition. The vertex set is split into p contiguous intervals; rank
// r materializes only the incoming edges of its owned vertices (the data a
// reverse traversal expands). Reverse-reachability sampling becomes a
// bulk-synchronous computation: each superstep expands the local frontier
// of every in-flight sample, and frontier vertices owned by other ranks
// are exchanged point-to-point. Edge coins are common-random-numbers —
// edge e is live in sample s iff hash(seed, s, e) < p(e) — so the sampled
// live-edge subgraph, and therefore every RRR set, is a pure function of
// (seed, sample id), independent of p. The resulting store is
// vertex-partitioned: rank r holds, for every sample, the members inside
// its interval.
//
// Seed selection exploits that layout: the per-vertex counters of
// Algorithm 4 are already local (each rank owns its interval), the
// per-round argmax is a tiny AllGather, and purging broadcasts only the
// matched sample ids from the owner of the chosen seed — O(k (p + |R_v|))
// communication instead of the sample-partitioned version's O(k n log p).

// PartOptions configures a graph-partitioned run. All ranks must pass
// identical options.
type PartOptions struct {
	// K is the seed-set cardinality.
	K int
	// Epsilon is the accuracy parameter in (0, 1).
	Epsilon float64
	// Model is the diffusion model.
	Model diffuse.Model
	// Seed feeds the common-random-numbers coins; must agree across ranks.
	Seed uint64
	// L is the confidence exponent (0 means 1).
	L float64
	// Batch is the number of samples in flight per superstep wave
	// (0 means 1024).
	Batch int
	// Threads is the intra-rank thread count for the CPU-bound pieces of a
	// wave (member-list sorting, shard index builds); <= 0 means 1. The
	// result does not depend on it.
	Threads int
	// Schedule selects how those intra-rank loops are scheduled (dynamic
	// work-stealing by default; the per-wave sorting work is as skewed as
	// the RRR set sizes themselves).
	Schedule imm.Schedule
	// Kernel is accepted for symmetry with dist.Options and validated;
	// the graph-partitioned wave expansion batches every in-flight sample
	// over each rank's shard by construction (each superstep is one fused
	// pass over the local CSR), so there is no separate scalar path to
	// select and the result does not depend on it.
	Kernel imm.Kernel
	// Store selects each rank's resident store for the final selection,
	// exactly as dist.Options.Store: imm.StoreCoded transcodes the rank's
	// vertex-partitioned shard after sampling under a rank-local frequency
	// relabeling. Must agree across ranks; the seeds do not depend on it.
	Store imm.StoreKind
}

// PartResult reports a graph-partitioned run.
type PartResult struct {
	// Seeds is the seed set, identical on every rank.
	Seeds []graph.Vertex
	// CoverageFraction and EstimatedSpread mirror dist.Result.
	CoverageFraction float64
	EstimatedSpread  float64
	// Theta and SamplesGenerated mirror dist.Result (samples are global;
	// every rank stores its vertex-interval slice of each).
	Theta            int64
	SamplesGenerated int64
	// OwnedLo, OwnedHi is this rank's vertex interval.
	OwnedLo, OwnedHi graph.Vertex
	// Store is the representation this rank's final selection ran over.
	Store imm.StoreKind
	// StoreBytes is this rank's partition of the RRR store.
	StoreBytes int64
	// FlatStoreBytes is what this rank's partition costs in the flat
	// layout (equal to StoreBytes for flat runs).
	FlatStoreBytes int64
	// IndexBytes is this rank's inverted-incidence index footprint over
	// its local shard (owned-interval members only).
	IndexBytes int64
	// Phases is the wall-clock breakdown.
	Phases trace.Times
	// Ranks is the communicator size.
	Ranks int
	// CommStats is this rank's transport/fault-injection counter snapshot.
	CommStats mpi.CommStats
	// FailedRank mirrors dist.Result: -1 on a clean run, otherwise the
	// peer blamed for the degraded (partial) result returned with a
	// RankFailedError.
	FailedRank int
}

// partition is the slice of the graph a rank owns: the in-edges of its
// vertex interval, with global in-CSR slot ids preserved for the CRN
// coins.
type partition struct {
	n      int // global vertex count
	lo, hi graph.Vertex
	// off is indexed by (v - lo); srcs/ws/slot hold the in-edges.
	off  []int64
	srcs []graph.Vertex
	ws   []float32
	slot []int64
	m    int64 // global edge count (coin-space layout)
}

// carvePartition copies rank's owned in-edges out of g. In a production
// deployment each rank would load only this data from storage; carving
// makes the algorithm's data access honest — nothing below touches g.
func carvePartition(g *graph.Graph, rank, size int) *partition {
	n := g.NumVertices()
	lo, hi := par.Interval(n, size, rank)
	p := &partition{n: n, lo: graph.Vertex(lo), hi: graph.Vertex(hi), m: g.NumEdges()}
	p.off = make([]int64, hi-lo+1)
	for v := lo; v < hi; v++ {
		srcs, ws := g.InNeighbors(graph.Vertex(v))
		base := g.InEdgeBase(graph.Vertex(v))
		p.off[v-lo+1] = p.off[v-lo] + int64(len(srcs))
		p.srcs = append(p.srcs, srcs...)
		p.ws = append(p.ws, ws...)
		for i := range srcs {
			p.slot = append(p.slot, base+int64(i))
		}
	}
	return p
}

// inEdges returns the owned in-edges of v.
func (p *partition) inEdges(v graph.Vertex) (srcs []graph.Vertex, ws []float32, slots []int64) {
	i := v - p.lo
	a, b := p.off[i], p.off[i+1]
	return p.srcs[a:b], p.ws[a:b], p.slot[a:b]
}

// owner returns the rank owning vertex v under the standard interval
// split.
func owner(n, size int, v graph.Vertex) int {
	// Invert Interval: the owner is the largest r with n*r/p <= v.
	r := (int(v)*size + size - 1) / n
	for r < size-1 && int(v) >= n*(r+1)/size {
		r++
	}
	for r > 0 && int(v) < n*r/size {
		r--
	}
	return r
}

// sampleKey derives the CRN key of a global sample id.
func sampleKey(seed uint64, id int64) uint64 {
	return rng.Mix64(seed ^ 0x9e3779b97f4a7c15 ^ uint64(id)*0xd1342543de82ef95)
}

// coin returns the uniform coin of (key, identity).
func coin(key, id uint64) float64 {
	return float64(rng.Mix64(key^(id*0x9e3779b97f4a7c15+0x632be59bd9b4e019))>>11) * (1.0 / (1 << 53))
}

// pair is one frontier item crossing ranks: sample index within the batch
// plus the vertex entering it.
type pair struct {
	s uint32
	v graph.Vertex
}

func encodePairs(ps []pair) []byte {
	buf := make([]byte, 8*len(ps))
	for i, p := range ps {
		binary.LittleEndian.PutUint32(buf[8*i:], p.s)
		binary.LittleEndian.PutUint32(buf[8*i+4:], uint32(p.v))
	}
	return buf
}

func decodePairs(buf []byte) []pair {
	ps := make([]pair, len(buf)/8)
	for i := range ps {
		ps[i].s = binary.LittleEndian.Uint32(buf[8*i:])
		ps[i].v = graph.Vertex(binary.LittleEndian.Uint32(buf[8*i+4:]))
	}
	return ps
}

const tagFrontier = 100

// partState carries the run state.
type partState struct {
	c      mpi.Comm
	part   *partition
	opt    PartOptions
	col    *rrr.Collection      // vertex-partitioned: sample -> owned members
	coded  *rrr.CodedCollection // non-nil once the shard is transcoded (Store == imm.StoreCoded)
	global int64                // samples generated so far

	// batch scratch
	visited []bool // [batch * ownedWidth] bitfield, rebuilt per wave
}

// RunPartitioned executes graph-partitioned IMM over the communicator.
// Every rank must call it with the same graph and options; the seed set it
// returns is identical on every rank and — because the live-edge coins
// are per-sample — identical for every rank count.
func RunPartitioned(c mpi.Comm, g *graph.Graph, opt PartOptions) (*PartResult, error) {
	if opt.L == 0 {
		opt.L = 1
	}
	if opt.Batch <= 0 {
		opt.Batch = 1024
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	iopt := imm.Options{K: opt.K, Epsilon: opt.Epsilon, Model: opt.Model, Seed: opt.Seed, L: opt.L, Workers: 1, Store: opt.Store, Kernel: opt.Kernel}
	if err := validate(iopt, g.NumVertices()); err != nil {
		return nil, err
	}
	res := &PartResult{Ranks: c.Size(), Store: opt.Store, FailedRank: -1}
	startOther := time.Now()
	st := &partState{
		c:    c,
		part: carvePartition(g, c.Rank(), c.Size()),
		opt:  opt,
		col:  rrr.NewCollection(g.NumVertices()),
	}
	res.OwnedLo, res.OwnedHi = st.part.lo, st.part.hi
	tm := imm.NewAnalysis(g.NumVertices(), opt.K, opt.Epsilon, opt.L)
	res.Phases.Add(trace.Other, time.Since(startOther))

	// finish / degraded mirror dist.Run: rank-local bookkeeping is stamped
	// on clean and degraded exits alike, and a rank failure yields the
	// partial result together with the typed error.
	finish := func() {
		res.SamplesGenerated = st.global
		if st.coded != nil {
			res.StoreBytes = st.coded.Bytes()
			res.FlatStoreBytes = st.coded.FlatBytes()
		} else {
			res.StoreBytes = st.col.Bytes()
			res.FlatStoreBytes = st.col.Bytes()
		}
		res.CommStats = mpi.StatsOf(c)
	}
	degraded := func(err error) (*PartResult, error) {
		var rf *mpi.RankFailedError
		if !errors.As(err, &rf) {
			return nil, err
		}
		res.FailedRank = rf.Rank
		finish()
		return res, err
	}

	var phaseErr error
	res.Phases.Measure(trace.Estimation, func() {
		lb := 1.0
		for x := 1; x <= tm.MaxX(); x++ {
			if err := st.sample(tm.ThetaAt(x) - st.global); err != nil {
				phaseErr = err
				return
			}
			_, cov, err := st.selectSeeds()
			if err != nil {
				phaseErr = err
				return
			}
			nF := tm.N() * float64(cov) / float64(st.global)
			if nF >= tm.ThresholdAt(x) {
				lb = tm.LowerBound(nF)
				break
			}
		}
		res.Theta = tm.FinalTheta(lb)
	})
	if phaseErr != nil {
		return degraded(phaseErr)
	}

	res.Phases.Measure(trace.Sampling, func() {
		phaseErr = st.sample(res.Theta - st.global)
	})
	if phaseErr != nil {
		return degraded(phaseErr)
	}

	// Transcode: a coded run re-expresses this rank's vertex-partitioned
	// shard under its own frequency relabeling and drops the flat arena
	// (rank-local, accounted to Other — see dist.Run).
	if opt.Store == imm.StoreCoded {
		startT := time.Now()
		relab := rrr.NewRelabeling(rrr.IncidenceOf(st.col, opt.Threads))
		st.coded = rrr.FromCollection(st.col, relab)
		st.col = nil
		res.Phases.Add(trace.Other, time.Since(startT))
	}

	// Each rank inverts its local shard (samples restricted to the owned
	// vertex interval) so the seed owner's purge enumeration is a lookup.
	var idx *rrr.Index
	res.Phases.Measure(trace.IndexBuild, func() {
		if st.coded != nil {
			idx = rrr.BuildIndexCoded(st.coded, opt.Threads)
		} else {
			idx = rrr.BuildIndex(st.col, opt.Threads)
		}
	})
	res.IndexBytes = idx.Bytes()

	res.Phases.Measure(trace.SelectSeeds, func() {
		seeds, cov, err := st.selectSeedsIndexed(idx)
		res.Seeds = seeds
		res.CoverageFraction = float64(cov) / float64(st.global)
		res.EstimatedSpread = res.CoverageFraction * tm.N()
		phaseErr = err
	})
	if phaseErr != nil {
		return degraded(phaseErr)
	}
	finish()
	return res, nil
}

// sample generates `count` global samples in waves of Batch supersteps.
func (st *partState) sample(count int64) error {
	for count > 0 {
		b := int64(st.opt.Batch)
		if b > count {
			b = count
		}
		if err := st.sampleWave(int(b)); err != nil {
			return err
		}
		count -= b
	}
	return nil
}

// sampleWave runs one BSP wave of `batch` concurrent samples with global
// ids [st.global, st.global+batch).
func (st *partState) sampleWave(batch int) error {
	p := st.part
	size, rank := st.c.Size(), st.c.Rank()
	width := int(p.hi - p.lo)
	if len(st.visited) < batch*width {
		st.visited = make([]bool, batch*width)
	} else {
		clear(st.visited[:batch*width])
	}
	visited := func(s int, v graph.Vertex) *bool {
		return &st.visited[s*width+int(v-p.lo)]
	}
	keys := make([]uint64, batch)
	members := make([][]graph.Vertex, batch)
	var frontier []pair

	// Roots: uniform from the sample's own stream; the owner seeds its
	// frontier.
	for s := 0; s < batch; s++ {
		id := st.global + int64(s)
		keys[s] = sampleKey(st.opt.Seed, id)
		r := rng.New(rng.Derive(st.opt.Seed, uint64(id)))
		root := graph.Vertex(r.Intn(p.n))
		if root >= p.lo && root < p.hi {
			*visited(s, root) = true
			members[s] = append(members[s], root)
			frontier = append(frontier, pair{uint32(s), root})
		}
	}

	outgoing := make([][]pair, size)
	for {
		var next []pair
		for i := range outgoing {
			outgoing[i] = outgoing[i][:0]
		}
		// Expand owned frontier vertices.
		for _, f := range frontier {
			s := int(f.s)
			srcs, ws, slots := p.inEdges(f.v)
			switch st.opt.Model {
			case diffuse.IC:
				for i, u := range srcs {
					if coin(keys[s], uint64(slots[i])) >= float64(ws[i]) {
						continue
					}
					st.route(&next, outgoing, visited, members, f.s, u, rank, size)
				}
			case diffuse.LT:
				// One coin per (sample, vertex) selects at most one
				// in-edge, proportionally to the weights.
				t := coin(keys[s], uint64(p.m)+uint64(f.v))
				cum := 0.0
				for i, u := range srcs {
					cum += float64(ws[i])
					if t < cum {
						st.route(&next, outgoing, visited, members, f.s, u, rank, size)
						break
					}
				}
			}
		}
		// Exchange cross-partition frontier items.
		for dst := 0; dst < size; dst++ {
			if dst == rank {
				continue
			}
			if err := st.c.Send(dst, tagFrontier, encodePairs(outgoing[dst])); err != nil {
				return err
			}
		}
		for src := 0; src < size; src++ {
			if src == rank {
				continue
			}
			buf, err := st.c.Recv(src, tagFrontier)
			if err != nil {
				return err
			}
			for _, f := range decodePairs(buf) {
				if vf := visited(int(f.s), f.v); !*vf {
					*vf = true
					members[int(f.s)] = append(members[int(f.s)], f.v)
					next = append(next, f)
				}
			}
		}
		// Global termination: any rank still active?
		active := []int64{int64(len(next))}
		if err := mpi.AllReduce(st.c, active, mpi.Sum); err != nil {
			return err
		}
		if active[0] == 0 {
			break
		}
		frontier = next
	}
	// Commit the wave: every rank appends the batch in sample order. The
	// member-list sorts are the wave's residual CPU-bound work and are as
	// skewed as the sample sizes, so they run under the configured
	// schedule; the appends stay sequential in sample order (the layout
	// contract that keeps shards identical across rank counts).
	sortRange := func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			slices.Sort(members[s])
		}
	}
	if st.opt.Schedule == imm.ScheduleDynamic {
		par.Dynamic(batch, st.opt.Threads, 16, sortRange)
	} else {
		par.ForEach(batch, st.opt.Threads, sortRange)
	}
	for s := 0; s < batch; s++ {
		st.col.Append(members[s])
	}
	st.global += int64(batch)
	return nil
}

// route delivers a newly live vertex either into the local structures or
// into the outbox of its owner.
func (st *partState) route(next *[]pair, outgoing [][]pair, visited func(int, graph.Vertex) *bool,
	members [][]graph.Vertex, s uint32, u graph.Vertex, rank, size int) {
	if u >= st.part.lo && u < st.part.hi {
		if vf := visited(int(s), u); !*vf {
			*vf = true
			members[s] = append(members[s], u)
			*next = append(*next, pair{s, u})
		}
		return
	}
	outgoing[owner(st.part.n, size, u)] = append(outgoing[owner(st.part.n, size, u)], pair{s, u})
}

// selectSeeds builds the local-shard index and runs the indexed selection
// (the estimation-loop entry point; RunPartitioned times the final build
// separately via trace.IndexBuild).
func (st *partState) selectSeeds() ([]graph.Vertex, int64, error) {
	return st.selectSeedsIndexed(rrr.BuildIndex(st.col, st.opt.Threads))
}

// localCount returns the number of samples this rank's resident shard
// holds, whichever store it lives in.
func (st *partState) localCount() int {
	if st.coded != nil {
		return st.coded.Count()
	}
	return st.col.Count()
}

// selectSeedsIndexed is the vertex-partitioned Algorithm 4: counters are
// local to each interval, the argmax is a small AllGather, and only the
// owner of the chosen seed knows (and broadcasts) which samples it covers
// — read directly off the owner's shard index instead of a scan over every
// local sample.
func (st *partState) selectSeedsIndexed(idx *rrr.Index) ([]graph.Vertex, int64, error) {
	p := st.part
	width := int(p.hi - p.lo)
	counter := make([]int64, p.n) // only [lo, hi) is used
	if st.coded != nil {
		// The shard index's degree column equals the CountRange population
		// count over the owned interval (members outside it were never
		// stored in this rank's shard).
		for v := p.lo; v < p.hi; v++ {
			counter[v] = idx.Degree(v)
		}
	} else {
		st.col.CountRange(counter, nil, p.lo, p.hi)
	}
	covered := rrr.NewBitset(st.localCount())
	chosen := make([]bool, width)

	seeds := make([]graph.Vertex, 0, st.opt.K)
	var coveredCount int64
	var decodeBuf []graph.Vertex
	for len(seeds) < st.opt.K {
		// Local best.
		best, arg := int64(-1), int64(-1)
		for v := p.lo; v < p.hi; v++ {
			if chosen[v-p.lo] {
				continue
			}
			if counter[v] > best {
				best, arg = counter[v], int64(v)
			}
		}
		// Global argmax: gather all (best, arg) pairs.
		pairs, err := mpi.AllGather(st.c, []int64{best, arg})
		if err != nil {
			return seeds, coveredCount, err
		}
		gBest, gArg := int64(-1), int64(-1)
		for _, pr := range pairs {
			if pr[1] < 0 {
				continue
			}
			if pr[0] > gBest || (pr[0] == gBest && pr[1] < gArg) {
				gBest, gArg = pr[0], pr[1]
			}
		}
		if gArg < 0 {
			break
		}
		v := graph.Vertex(gArg)
		seeds = append(seeds, v)
		coveredCount += gBest
		ownerRank := owner(p.n, st.c.Size(), v)
		if ownerRank == st.c.Rank() {
			chosen[v-p.lo] = true
		}
		// The owner reads the uncovered samples containing v off its shard
		// index (v lies in the owner's interval, so its incidence is fully
		// local there).
		var matched []int64
		if ownerRank == st.c.Rank() {
			for _, j := range idx.SamplesOf(v) {
				if !covered.Get(int(j)) {
					matched = append(matched, int64(j))
				}
			}
		}
		matched, err = mpi.Broadcast(st.c, ownerRank, matched)
		if err != nil {
			return seeds, coveredCount, err
		}
		// Everyone purges those samples from their interval's counters. A
		// coded shard decodes each matched sample and filter-scans the
		// owned interval; decrements commute, so the counters match the
		// flat path exactly.
		for _, j := range matched {
			covered.Set(int(j))
			if st.coded != nil {
				decodeBuf = st.coded.AppendMembers(int(j), decodeBuf[:0])
				for _, u := range decodeBuf {
					if u >= p.lo && u < p.hi {
						counter[u]--
					}
				}
				continue
			}
			for _, u := range st.col.RangeOf(int(j), p.lo, p.hi) {
				counter[u]--
			}
		}
	}
	return seeds, coveredCount, nil
}

// String identifies the decomposition for logs.
func (r *PartResult) String() string {
	return fmt.Sprintf("partitioned IMM: %d ranks, own [%d,%d), theta %d, spread %.1f",
		r.Ranks, r.OwnedLo, r.OwnedHi, r.Theta, r.EstimatedSpread)
}
