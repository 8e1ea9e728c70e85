package imm

import (
	"errors"

	"influmax/internal/graph"
	"influmax/internal/par"
)

// The greedy engine (DESIGN.md §18): the one sketch-space loop of
// Algorithm 4 — fill the counters, take the argmax, purge the winner's
// samples, repeat. Where the counters come from and how a purge turns into
// decrements is a CoverageSource: the flat and byte-coded stores with their
// incidence index (select.go), the cluster router's fan-out over shard
// sessions, and internal/dist's sample-partitioned ranks, whose counts and
// decrements are summed by AllReduce. The engine owns everything else: the
// argmax order, blocked pre-purge, padding seeds, gains, coverage, budget
// and the streaming hook.

// CoverageSource is where the engine's counters come from.
type CoverageSource interface {
	// Start fills counter (zeroed, one entry per vertex) with each vertex's
	// count of eligible samples and returns how many samples are eligible.
	// It opens a fresh selection: nothing is covered afterwards.
	Start(counter []int64) (eligible int64, err error)
	// Purge marks v's still-uncovered samples covered and subtracts their
	// members from counter. ErrRestart means the source lost its coverage
	// state; any other error ends the selection.
	Purge(v graph.Vertex, counter []int64) error
}

// ErrRestart is what a CoverageSource's Purge returns when its covered set
// is gone — a shard failed over or evicted the session. The engine calls
// Start again, re-purges the blocked set and replays the committed seeds in
// order, restating their gains and the coverage, then carries on greedily.
var ErrRestart = errors.New("imm: coverage source restarted")

// Greedy runs the greedy selection for q over src, whose counters span n
// vertices, with a p-worker argmax. q must be valid for n (Query.Validate;
// K may exceed the candidates, and the loop then stops when none is left).
// onSeed, when non-nil, sees each seed as it is committed, with its gain as
// of selection: a later restart may restate the gain in the result but does
// not call onSeed again. When src fails with anything but ErrRestart, the
// seeds committed so far come back together with the error.
//
// The argmax scans ascending within interval-owned vertex ranges and keeps
// strictly better candidates, so ties go to the lowest vertex and the
// winner does not depend on p. The order is the counter value, or under a
// budget ratioBetter over the affordable vertices.
func Greedy(src CoverageSource, n int, q Query, p int, onSeed func(i int, v graph.Vertex, gain int64)) (*QueryResult, error) {
	res := &QueryResult{Seeds: make([]graph.Vertex, 0, q.K), Gains: make([]int64, 0, q.K)}
	if n == 0 {
		return res, nil
	}
	p = workers(n, p)
	e := &engine{
		src: src, n: n, p: p, q: q, res: res,
		costs:   q.costs(n),
		counter: make([]int64, n),
		chosen:  make([]bool, n),
		bests:   make([]int64, p),
		args:    make([]int, p),
	}
	if err := e.establish(); err != nil {
		return res, err
	}
	for len(res.Seeds) < q.K {
		arg := e.argmax()
		if arg < 0 {
			break // every vertex chosen, or none affordable
		}
		v := graph.Vertex(arg)
		gain := e.counter[arg]
		res.Seeds = append(res.Seeds, v)
		res.Gains = append(res.Gains, gain)
		res.Covered += gain
		e.chosen[arg] = true
		if e.costs != nil {
			res.SpentBudget += e.costs[arg]
		}
		if onSeed != nil {
			onSeed(len(res.Seeds)-1, v, gain)
		}
		if gain == 0 {
			continue // padding seed: nothing to purge
		}
		err := src.Purge(v, e.counter)
		if errors.Is(err, ErrRestart) {
			err = e.establish() // v is committed, so the replay purges it
		}
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// workers resolves a worker count for n vertices: p <= 0 means the
// default, and no worker gets an empty vertex interval.
func workers(n, p int) int {
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	return min(p, n)
}

type engine struct {
	src     CoverageSource
	n, p    int
	q       Query
	res     *QueryResult
	costs   []float64 // nil unless budgeted
	counter []int64
	chosen  []bool
	bests   []int64
	args    []int
}

// establish starts the source and rebuilds the committed state on it,
// starting over whenever the source restarts part-way through.
func (e *engine) establish() error {
	for {
		clear(e.counter)
		eligible, err := e.src.Start(e.counter)
		if err != nil {
			return err
		}
		e.res.Eligible, e.res.Covered = eligible, 0
		if err := e.replay(); !errors.Is(err, ErrRestart) {
			return err
		}
	}
}

// replay runs competitive selection's blocked purge (a rival's seeds are
// off the table and the samples they cover yield no gain to anyone), then
// purges every committed seed in order with its gain restated.
func (e *engine) replay() error {
	for _, b := range e.q.Blocked {
		e.chosen[b] = true
		// A repeated b has no uncovered samples left, so it is skipped.
		if e.counter[b] > 0 {
			if err := e.src.Purge(b, e.counter); err != nil {
				return err
			}
		}
	}
	for i, v := range e.res.Seeds {
		gain := e.counter[v]
		e.res.Gains[i] = gain
		e.res.Covered += gain
		if gain > 0 {
			if err := e.src.Purge(v, e.counter); err != nil {
				return err
			}
		}
	}
	return nil
}

// argmax picks the next seed, or -1 when no candidate remains.
func (e *engine) argmax() int {
	counter, chosen, costs := e.counter, e.chosen, e.costs
	if costs == nil {
		par.Run(e.p, func(rank int) {
			vl, vh := par.Interval(e.n, e.p, rank)
			best, arg := int64(-1), -1
			for v := vl; v < vh; v++ {
				if !chosen[v] && counter[v] > best {
					best, arg = counter[v], v
				}
			}
			e.bests[rank], e.args[rank] = best, arg
		})
		_, arg := par.ReduceMax(e.bests, e.args)
		return arg
	}
	type cand struct {
		ratio float64
		gain  int64
		arg   int
	}
	spent, budget := e.res.SpentBudget, e.q.Budget
	cands := make([]cand, e.p)
	par.Run(e.p, func(rank int) {
		vl, vh := par.Interval(e.n, e.p, rank)
		best := cand{arg: -1}
		for v := vl; v < vh; v++ {
			if chosen[v] || spent+costs[v] > budget {
				continue
			}
			g := counter[v]
			r := float64(g) / costs[v]
			if best.arg < 0 || ratioBetter(r, g, v, best.ratio, best.gain, best.arg) {
				best = cand{ratio: r, gain: g, arg: v}
			}
		}
		cands[rank] = best
	})
	win := cand{arg: -1}
	for _, c := range cands {
		if c.arg < 0 {
			continue
		}
		if win.arg < 0 || ratioBetter(c.ratio, c.gain, c.arg, win.ratio, win.gain, win.arg) {
			win = c
		}
	}
	return win.arg
}

// ratioBetter is the budgeted argmax's total order: gain-per-cost
// descending, then exact gain descending, then vertex ascending. The order
// is total and scanned ascending by vertex within each worker interval, so
// the winner is independent of the worker count; and because float64
// division by a positive constant is monotone (non-strict) in the integer
// gain, uniform costs reduce the order to the plain (gain, vertex) one —
// the plain/budgeted equivalence the property tests pin.
func ratioBetter(r1 float64, g1 int64, v1 int, r2 float64, g2 int64, v2 int) bool {
	if r1 != r2 {
		return r1 > r2
	}
	if g1 != g2 {
		return g1 > g2
	}
	return v1 < v2
}
