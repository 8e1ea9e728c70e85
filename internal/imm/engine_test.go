package imm

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"influmax/internal/graph"
)

// scriptedSource is a CoverageSource over explicit samples whose purges
// fail on cue: script maps a purge call number (1-based) to the error that
// call returns. A scripted ErrRestart also loses every sample from keep
// on, as a failed-over shard would.
type scriptedSource struct {
	samples [][]graph.Vertex
	live    int // samples [0, live) take part
	keep    int
	script  map[int]error
	covered []bool
	calls   int
	log     []string
}

func (s *scriptedSource) Start(counter []int64) (int64, error) {
	s.log = append(s.log, "start")
	s.covered = make([]bool, s.live)
	for _, smp := range s.samples[:s.live] {
		for _, u := range smp {
			counter[u]++
		}
	}
	return int64(s.live), nil
}

func (s *scriptedSource) Purge(v graph.Vertex, counter []int64) error {
	s.calls++
	s.log = append(s.log, fmt.Sprintf("purge %d", v))
	if err := s.script[s.calls]; err != nil {
		if err == ErrRestart {
			s.live = s.keep
		}
		return err
	}
	for j, smp := range s.samples[:s.live] {
		if s.covered[j] || !slices.Contains(smp, v) {
			continue
		}
		s.covered[j] = true
		for _, u := range smp {
			counter[u]--
		}
	}
	return nil
}

// engineSamples: the first five samples survive a restart, the last three
// are lost with it.
func engineSamples() [][]graph.Vertex {
	return [][]graph.Vertex{
		{0, 1}, {0, 2}, {1, 3}, {4}, {4, 5},
		{0}, {0, 3}, {2},
	}
}

type seedCall struct {
	i    int
	v    graph.Vertex
	gain int64
}

// TestGreedyRestartReplays pins the engine's restart contract. The source
// restarts on the purge of the second seed and again inside the replay,
// losing three samples. The engine must re-purge the blocked vertex, replay
// the committed seeds with their gains and coverage restated over the
// surviving samples, call onSeed only for new commits, and then carry on
// greedily over the survivors.
func TestGreedyRestartReplays(t *testing.T) {
	for _, p := range []int{1, 3} {
		src := &scriptedSource{
			samples: engineSamples(), live: 8, keep: 5,
			script: map[int]error{3: ErrRestart, 5: ErrRestart},
		}
		var calls []seedCall
		res, err := Greedy(src, 6, Query{K: 4, Blocked: []graph.Vertex{5}}, p, func(i int, v graph.Vertex, gain int64) {
			calls = append(calls, seedCall{i, v, gain})
		})
		if err != nil {
			t.Fatal(err)
		}
		// Before the restart: blocked 5 purges {4,5}; seed 0 takes four
		// samples, seed 1 (lowest of the ties at 1) is committed and its
		// purge restarts. Over the survivors, 0 covers two samples and 1
		// one; then 4 gains {4}, and 2 pads.
		if want := []graph.Vertex{0, 1, 4, 2}; !slices.Equal(res.Seeds, want) {
			t.Fatalf("p=%d: seeds %v, want %v", p, res.Seeds, want)
		}
		if want := []int64{2, 1, 1, 0}; !slices.Equal(res.Gains, want) {
			t.Fatalf("p=%d: gains %v, want the restated %v", p, res.Gains, want)
		}
		if res.Covered != 4 || res.Eligible != 5 {
			t.Fatalf("p=%d: covered %d eligible %d, want 4 of 5", p, res.Covered, res.Eligible)
		}
		wantCalls := []seedCall{{0, 0, 4}, {1, 1, 1}, {2, 4, 1}, {3, 2, 0}}
		if !slices.Equal(calls, wantCalls) {
			t.Fatalf("p=%d: onSeed calls %v, want %v (new commits only)", p, calls, wantCalls)
		}
		wantLog := []string{
			"start", "purge 5", "purge 0", "purge 1",
			"start", "purge 5", "purge 0",
			"start", "purge 5", "purge 0", "purge 1", "purge 4",
		}
		if !slices.Equal(src.log, wantLog) {
			t.Fatalf("p=%d: source saw %v, want %v", p, src.log, wantLog)
		}
	}
}

// TestGreedyErrorKeepsPrefix: any error but ErrRestart ends the selection,
// and the seeds committed so far — including the one whose purge failed —
// come back with it.
func TestGreedyErrorKeepsPrefix(t *testing.T) {
	broken := errors.New("collective broke")
	src := &scriptedSource{samples: engineSamples(), live: 8, keep: 8, script: map[int]error{2: broken}}
	onSeeds := 0
	res, err := Greedy(src, 6, Query{K: 4}, 2, func(int, graph.Vertex, int64) { onSeeds++ })
	if !errors.Is(err, broken) {
		t.Fatalf("err = %v, want %v", err, broken)
	}
	if res == nil || !slices.Equal(res.Seeds, []graph.Vertex{0, 4}) || !slices.Equal(res.Gains, []int64{4, 2}) {
		t.Fatalf("result %+v, want the committed prefix [0 4] with gains [4 2]", res)
	}
	if onSeeds != 2 {
		t.Fatalf("onSeed called %d times, want 2", onSeeds)
	}
}

// TestEmptyCostsIsUnitCosts: an empty cost vector passes Validate and
// means no costs — plain selection without a budget, unit costs with one —
// over both stores and any worker count.
func TestEmptyCostsIsUnitCosts(t *testing.T) {
	for _, seed := range []uint64{3, 41, 977} {
		col, idx, coded, cidx, roots, n := propStore(seed)
		k := propK(seed, n)
		for _, p := range []int{1, 4} {
			for _, c := range []struct{ empty, want Query }{
				{Query{K: k, Costs: []float64{}}, Query{K: k}},
				{Query{K: k, Costs: []float64{}, Budget: 2}, Query{K: k, Budget: 2}},
			} {
				want, err := SelectQueryIndexed(col, idx, roots, c.want, p)
				if err != nil {
					t.Fatal(err)
				}
				flat, err := SelectQueryIndexed(col, idx, roots, c.empty, p)
				if err != nil {
					t.Fatal(err)
				}
				sk, err := SelectQuerySketch(coded, cidx, roots, c.empty, p)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(flat, want) || !sameResult(sk, want) {
					t.Fatalf("seed %d p=%d %+v: flat %+v, coded %+v, want %+v", seed, p, c.empty, flat, sk, want)
				}
			}
		}
	}
}
