package diffuse

import (
	"slices"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

// Sampler generates random reverse reachable sets. It owns per-worker
// scratch (an epoch-stamped visited array and a BFS queue) so repeated
// calls allocate nothing beyond the result; it is NOT safe for concurrent
// use — create one Sampler per worker goroutine.
type Sampler struct {
	g     *graph.Graph
	model Model
	scan  *ScanTable // read-only, shared with other workers' samplers (IC)

	visited []uint32
	epoch   uint32
	queue   []graph.Vertex
}

// NewSampler returns a sampler over g for the given model, building its
// own scan table. For LT the graph's in-weights must form a valid
// configuration (per-vertex sums at most 1; see graph.NormalizeLT).
// Workers sampling the same graph should build one ScanTable and use
// NewSamplerTable.
func NewSampler(g *graph.Graph, model Model) *Sampler {
	return NewSamplerTable(g, model, NewScanTable(g, model))
}

// NewSamplerTable returns a sampler over g reading a previously built
// scan table (which must describe g under model: NewScanTable over g, or
// a table patched to g).
func NewSamplerTable(g *graph.Graph, model Model, scan *ScanTable) *Sampler {
	return &Sampler{
		g:       g,
		model:   model,
		scan:    scan,
		visited: make([]uint32, g.NumVertices()),
		epoch:   0,
	}
}

// Model returns the diffusion model the sampler was built for.
func (s *Sampler) Model() Model { return s.model }

// nextEpoch advances the visited stamp, clearing the array on wraparound.
func (s *Sampler) nextEpoch() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.visited)
		s.epoch = 1
	}
}

// GenerateRR appends the random reverse reachable set of root to out and
// returns it, sorted ascending by vertex id (the compact representation of
// Section 3.1: sorted lists enable the binary-search partition navigation
// of Algorithm 4). The root itself is always a member.
func (s *Sampler) GenerateRR(r *rng.Rand, root graph.Vertex, out []graph.Vertex) []graph.Vertex {
	base := len(out) // out may already hold earlier samples (arena use)
	switch s.model {
	case IC:
		out = s.reverseBFS(r, root, out)
	case LT:
		out = s.reverseWalk(r, root, out)
	default:
		panic("diffuse: unknown model")
	}
	slices.Sort(out[base:])
	return out
}

// reverseBFS is the IC kernel: a breadth-first traversal of incoming edges
// where each edge is kept with its activation probability. A skip list
// (see ScanTable) draws one geometric gap per fire instead of one coin per
// unvisited edge — the same loop, on the same draws, as the fused
// kernel's expandLane; every other list flips one coin per unvisited edge.
func (s *Sampler) reverseBFS(r *rng.Rand, root graph.Vertex, out []graph.Vertex) []graph.Vertex {
	s.nextEpoch()
	s.visited[root] = s.epoch
	s.queue = append(s.queue[:0], root)
	out = append(out, root)
	// Pop via a head index rather than re-slicing the front: re-slicing
	// surrenders the popped prefix's capacity, so every BFS would grow a
	// fresh backing array. The head index keeps the array stable across
	// samples — the pooled steady state allocates nothing here.
	for head := 0; head < len(s.queue); head++ {
		x := s.queue[head]
		srcs, ws := s.g.InNeighbors(x)
		if isSkip(s.scan.class[x]) {
			inv := s.scan.invLnQ[x]
			for i := 0; ; i++ {
				gap := skipGap(r.Uint64(), inv)
				if !(gap < float64(len(srcs)-i)) {
					break
				}
				i += int(gap)
				if u := srcs[i]; s.visited[u] != s.epoch {
					s.visited[u] = s.epoch
					s.queue = append(s.queue, u)
					out = append(out, u)
				}
			}
			continue
		}
		for i, u := range srcs {
			if s.visited[u] == s.epoch {
				continue
			}
			if r.Float32() < ws[i] {
				s.visited[u] = s.epoch
				s.queue = append(s.queue, u)
				out = append(out, u)
			}
		}
	}
	return out
}

// reverseWalk is the LT kernel: from the root, each step selects at most
// one incoming edge of the current vertex — edge i with probability w_i,
// no edge with probability 1 - sum(w) — and stops on a revisit. This is
// the triggering-set view of LT and the reason the paper observes LT RRR
// sets to be far smaller than IC ones.
func (s *Sampler) reverseWalk(r *rng.Rand, root graph.Vertex, out []graph.Vertex) []graph.Vertex {
	s.nextEpoch()
	s.visited[root] = s.epoch
	out = append(out, root)
	cur := root
	for {
		srcs, ws := s.g.InNeighbors(cur)
		if len(srcs) == 0 {
			return out
		}
		t := r.Float64()
		cum := 0.0
		next := -1
		for i, w := range ws {
			cum += float64(w)
			if t < cum {
				next = int(srcs[i])
				break
			}
		}
		if next < 0 {
			return out // no edge selected: the walk dies here
		}
		u := graph.Vertex(next)
		if s.visited[u] == s.epoch {
			return out // reached an already-selected vertex: stop
		}
		s.visited[u] = s.epoch
		out = append(out, u)
		cur = u
	}
}
