package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"influmax/internal/gen"
	"influmax/internal/graph"
)

// The dataset every workload runs on: the soc-LiveJournal1 analog with
// weighted-cascade weights. The scale keeps one imm.Run at the paper's
// high-accuracy setting near two seconds on two cores, so a run holds
// several solves and a serving run over a thousand queries. Like the
// paper's SNAP graphs, the dataset is fixed: the workload seed drives the
// program's sampling seed, the query mix and the delta stream, so runs
// with different seeds measure the same amount of graph work.
const (
	datasetName  = "soc-LiveJournal1"
	datasetScale = 0.005
	datasetSeed  = 1
)

// makeGraph generates the dataset.
func makeGraph() (*graph.Graph, error) {
	ds, err := gen.ByName(datasetName)
	if err != nil {
		return nil, err
	}
	g := ds.Generate(datasetScale, datasetSeed)
	g.AssignWeightedCascade()
	return g, nil
}

// newRand returns the benchmark's stream for one purpose (stream) of one
// workload seed; streams are independent of the program's own RNG.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// reqKind is the shape of one serving request.
type reqKind uint8

const (
	reqPlain reqKind = iota
	reqBudgeted
	reqTargeted
	reqBlocked
	reqSpread
	numReqKinds
)

var reqKindNames = [numReqKinds]string{"plain", "budgeted", "targeted", "blocked", "spread"}

func (k reqKind) String() string { return reqKindNames[k] }

// request is one generated serving request and its wire body.
type request struct {
	Kind     reqKind
	K        int
	Budget   float64
	Audience []graph.Vertex
	Blocked  []graph.Vertex
	Seeds    []graph.Vertex
	Path     string
	Body     []byte
	// Key identifies the request's content: equal keys must get equal
	// answers, so answers are checked once per key.
	Key string
}

// mixSpec describes a query mix. Each request's shape is drawn by
// weight. Its size is uniform over [1, KMax]: k for top-k shapes, the
// budget (at unit cost, so the budget is the seed count) for budgeted
// ones, the rival count for blocked ones and the seed count for spread
// requests. The paper sweeps k evenly (Figure 4: k from 10 to 100), and no
// trace of real requests exists to weight sizes otherwise.
type mixSpec struct {
	KMax    int
	Weights [numReqKinds]float64
}

// serveMix is the serve workload's mix: mostly plain top-k, plus every
// other query shape. No trace ranks the other shapes, so they share the
// rest equally.
var serveMix = mixSpec{KMax: 100, Weights: [numReqKinds]float64{0.6, 0.1, 0.1, 0.1, 0.1}}

// routedMix is the routed workload's mix: plain, targeted, blocked and
// budgeted queries in equal shares, k at most 10, because a routed query
// pays a fan-out round per seed.
var routedMix = mixSpec{KMax: 10, Weights: [numReqKinds]float64{0.25, 0.25, 0.25, 0.25, 0}}

// plainMix is the churn reader's mix: plain top-k only.
var plainMix = mixSpec{KMax: 100, Weights: [numReqKinds]float64{1, 0, 0, 0, 0}}

// queryStream deals a mix's requests one at a time, generating each when
// it is asked for: the same seed deals the same requests in the same
// order, however fast they are asked for.
type queryStream struct {
	mu    sync.Mutex
	gen   func() request
	dealt []*request
}

// Next deals the next request and its index in the stream.
func (s *queryStream) Next() (*request, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rq := s.gen()
	s.dealt = append(s.dealt, &rq)
	return &rq, int64(len(s.dealt) - 1)
}

// Dealt returns the requests dealt so far, in order.
func (s *queryStream) Dealt() []*request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.dealt)
}

// newQueryStream starts the seeded request stream of a mix over g.
// Audiences are uniform vertex sets of 2-4% of the vertices, small enough
// that the filter changes the answer. Rivals and spread seed sets are
// drawn with probability proportional to out-degree, the way an
// influence-seeking rival would favour hubs, without running IMM to find
// them. Half the spread requests carry an audience.
func newQueryStream(seed uint64, g *graph.Graph, spec mixSpec) *queryStream {
	r := newRand(seed, 0x9e3)
	n := g.NumVertices()
	// cum[v] is the out-degree of vertices 0..v, for degree-weighted draws.
	cum := make([]int, n)
	total := 0
	for v := 0; v < n; v++ {
		total += g.OutDegree(graph.Vertex(v))
		cum[v] = total
	}
	uniform := func() graph.Vertex { return graph.Vertex(r.IntN(n)) }
	byDegree := func() graph.Vertex {
		x := r.IntN(total)
		v, _ := slices.BinarySearch(cum, x+1)
		return graph.Vertex(v)
	}
	vset := func(size int, draw func() graph.Vertex) []graph.Vertex {
		seen := make(map[graph.Vertex]bool, size)
		vs := make([]graph.Vertex, 0, size)
		for len(vs) < size {
			if v := draw(); !seen[v] {
				seen[v] = true
				vs = append(vs, v)
			}
		}
		slices.Sort(vs)
		return vs
	}
	var wsum float64
	for _, w := range spec.Weights {
		wsum += w
	}
	return &queryStream{gen: func() request {
		x := r.Float64() * wsum
		kind := reqPlain
		for k, w := range spec.Weights {
			if x < w {
				kind = reqKind(k)
				break
			}
			x -= w
		}
		size := 1 + r.IntN(spec.KMax)
		rq := request{Kind: kind, K: size, Path: "/v1/seeds"}
		switch kind {
		case reqBudgeted:
			rq.K, rq.Budget = spec.KMax, float64(size)
		case reqTargeted:
			rq.Audience = vset(n/50+r.IntN(n/50+1), uniform)
		case reqBlocked:
			rq.K = 1 + r.IntN(spec.KMax)
			rq.Blocked = vset(size, byDegree)
		case reqSpread:
			rq.K = 0
			rq.Path = "/v1/spread"
			rq.Seeds = vset(size, byDegree)
			if r.IntN(2) == 0 {
				rq.Audience = vset(n/50+r.IntN(n/50+1), uniform)
			}
		}
		rq.Body = rq.encode()
		rq.Key = rq.Path + string(rq.Body)
		return rq
	}}
}

// encode builds the JSON body both front ends accept.
func (rq request) encode() []byte {
	var v any
	if rq.Kind == reqSpread {
		v = struct {
			Seeds    []graph.Vertex `json:"seeds"`
			Audience []graph.Vertex `json:"audience,omitempty"`
		}{rq.Seeds, rq.Audience}
	} else {
		v = struct {
			K        int            `json:"k"`
			Budget   float64        `json:"budget,omitempty"`
			Audience []graph.Vertex `json:"audience,omitempty"`
			Blocked  []graph.Vertex `json:"blocked,omitempty"`
		}{rq.K, rq.Budget, rq.Audience, rq.Blocked}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a request: %v", err))
	}
	return b
}

// deltaStream generates batches of ops edge mutations over g: half inserts
// of absent edges, half deletes of present ones, so the edge count stays
// level. No edge is touched twice in the stream, so every op is valid
// whatever order concurrent batches are applied in. Inserts join a
// uniform source to a destination and weigh 1/(in-degree+1), like the
// weighted cascade; deletes remove one in-edge of their destination.
//
// Destinations are uniform over vertices (with an in-edge, for deletes),
// drawn stratified by degree: a shuffled deck holds each degree stratum
// exactly in proportion to its size. A mutation at a hub touches many
// samples, so a plain uniform draw would let the number of costly batches,
// and with it the latency tail, swing from seed to seed.
func deltaStream(seed uint64, g *graph.Graph, batches, ops int) []graph.Delta {
	r := newRand(seed, 0xde17a)
	n := g.NumVertices()
	var all, withIn []graph.Vertex
	for v := 0; v < n; v++ {
		all = append(all, graph.Vertex(v))
		if g.InDegree(graph.Vertex(v)) > 0 {
			withIn = append(withIn, graph.Vertex(v))
		}
	}
	inserts := newStrataDeck(r, g, all, batches*((ops+1)/2))
	deletes := newStrataDeck(r, g, withIn, batches*(ops/2))

	touched := map[uint64]bool{}
	key := func(u, v graph.Vertex) uint64 { return uint64(u)<<32 | uint64(v) }
	hasEdge := func(u, v graph.Vertex) bool {
		dst, _ := g.OutNeighbors(u)
		return slices.Contains(dst, v)
	}
	out := make([]graph.Delta, batches)
	for b := range out {
		d := make(graph.Delta, 0, ops)
		for len(d) < ops {
			if len(d)%2 == 0 {
				stratum := inserts.next()
				for {
					u, v := graph.Vertex(r.IntN(n)), stratum[r.IntN(len(stratum))]
					if u == v || touched[key(u, v)] || hasEdge(u, v) {
						continue
					}
					touched[key(u, v)] = true
					w := float32(1 / float64(g.InDegree(v)+1))
					d = append(d, graph.DeltaOp{Kind: graph.DeltaInsert, Src: u, Dst: v, W: w})
					break
				}
			} else {
				stratum := deletes.next()
				for {
					v := stratum[r.IntN(len(stratum))]
					src := g.InSources(v)
					u := src[r.IntN(len(src))]
					if touched[key(u, v)] {
						continue
					}
					touched[key(u, v)] = true
					d = append(d, graph.DeltaOp{Kind: graph.DeltaDelete, Src: u, Dst: v})
					break
				}
			}
		}
		out[b] = d
	}
	return out
}

// strataBounds cut vertices sorted by degree (in plus out) into strata at
// these quantiles.
var strataBounds = []float64{0, 0.5, 0.8, 0.95, 0.99, 0.999, 1}

// strataDeck deals degree strata in a shuffled order that holds each
// stratum in proportion to its share of the vertices.
type strataDeck struct {
	strata [][]graph.Vertex
	deck   []int
}

func newStrataDeck(r *rand.Rand, g *graph.Graph, vs []graph.Vertex, draws int) *strataDeck {
	vs = slices.Clone(vs)
	deg := func(v graph.Vertex) int { return g.InDegree(v) + g.OutDegree(v) }
	slices.SortStableFunc(vs, func(a, b graph.Vertex) int { return deg(a) - deg(b) })
	d := &strataDeck{}
	for i := 1; i < len(strataBounds); i++ {
		lo, hi := int(strataBounds[i-1]*float64(len(vs))), int(strataBounds[i]*float64(len(vs)))
		d.strata = append(d.strata, vs[lo:hi])
		for j := int(strataBounds[i-1] * float64(draws)); j < int(strataBounds[i]*float64(draws)); j++ {
			d.deck = append(d.deck, i-1)
		}
	}
	r.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
	return d
}

// next deals the next stratum.
func (d *strataDeck) next() []graph.Vertex {
	s := d.deck[0]
	d.deck = d.deck[1:]
	return d.strata[s]
}

// deltaBody encodes one batch as a POST /v1/graph/delta body.
func deltaBody(d graph.Delta) []byte {
	type op struct {
		Op  string  `json:"op"`
		Src uint32  `json:"src"`
		Dst uint32  `json:"dst"`
		W   float32 `json:"w,omitempty"`
	}
	ops := make([]op, len(d))
	for i, o := range d {
		ops[i] = op{Op: o.Kind.String(), Src: o.Src, Dst: o.Dst, W: o.W}
	}
	b, err := json.Marshal(struct {
		Ops []op `json:"ops"`
	}{ops})
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a delta: %v", err))
	}
	return b
}
