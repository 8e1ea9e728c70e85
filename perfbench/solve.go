package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/rrr"
	"influmax/internal/trace"
)

// The solve workload's parameters: the paper's high-accuracy setting.
const (
	solveK   = 100
	solveEps = 0.13
	// mcTrials is the Monte Carlo cascade count of the spread check.
	mcTrials = 2000
)

// solveOptions are the imm.Run options of the solve workload, with the
// defaults imm.NewBatchSampler expects already resolved.
func solveOptions(seed uint64) imm.Options {
	return imm.Options{
		K: solveK, Epsilon: solveEps, Model: diffuse.IC,
		Workers: runtime.GOMAXPROCS(0), Seed: seed, L: 1,
	}
}

// replay is imm.Run's pipeline (Algorithms 2, 3 and 4) re-run through the
// program's public functions, with a span around each call.
type replay struct {
	Theta    int64
	Seeds    []graph.Vertex
	Samples  int
	Entries  int64
	Rounds   int
	Wall     time.Duration // the pipeline, without the transcode
	Phases   trace.Times
	EstSamp  time.Duration // Sample inside the estimation rounds
	EstSel   time.Duration // SelectSeeds inside the estimation rounds
	Final    time.Duration // the top-up Sample
	Index    time.Duration
	Select   time.Duration
	Trans    time.Duration
	Store    int64
	IndexB   int64
	Occ, Bal float64
}

// replaySolve runs the pipeline under one top-level span "replay" on
// track, then the transcode as a top-level span of its own.
func replaySolve(g *graph.Graph, opt imm.Options, tr *Tracer, track string) replay {
	var rp replay
	start := time.Now()
	top := tr.Start("replay", track, 0, 0)
	child := func(name string) *Open { return tr.Start(name, "", top.ID(), 0) }

	sp := child("estimate.setup")
	n := g.NumVertices()
	col := rrr.NewCollection(n)
	st := imm.NewBatchSampler(g, opt)
	an := imm.NewAnalysis(n, opt.K, opt.Epsilon, opt.L)
	rp.Phases.Add(trace.Other, sp.End())

	est := child("estimate.rounds")
	t0 := time.Now()
	lb := 1.0
	for x := 1; x <= an.MaxX(); x++ {
		rp.Rounds++
		round := tr.Start("estimate.round", "", est.ID(), int64(x))
		s := tr.Start("sampling.estimate", "", round.ID(), int64(x))
		ts := time.Now()
		st.Sample(col, int(an.ThetaAt(x)-int64(col.Count())))
		rp.EstSamp += time.Since(ts)
		s.End()
		s = tr.Start("estimate.select", "", round.ID(), int64(x))
		ts = time.Now()
		_, cov := imm.SelectSeeds(col, opt.K, opt.Workers)
		rp.EstSel += time.Since(ts)
		s.End()
		round.End()
		nF := an.N() * float64(cov) / float64(col.Count())
		if nF >= an.ThresholdAt(x) {
			lb = an.LowerBound(nF)
			break
		}
	}
	rp.Theta = an.FinalTheta(lb)
	est.End()
	rp.Phases.Add(trace.Estimation, time.Since(t0))

	sp = child("sampling.final")
	t0 = time.Now()
	st.Sample(col, int(rp.Theta)-col.Count())
	rp.Final = time.Since(t0)
	sp.End()
	rp.Phases.Add(trace.Sampling, rp.Final)

	sp = child("rrr.index_build")
	t0 = time.Now()
	idx := rrr.BuildIndex(col, opt.Workers)
	rp.Index = time.Since(t0)
	sp.End()
	rp.Phases.Add(trace.IndexBuild, rp.Index)

	sp = child("select.final")
	t0 = time.Now()
	rp.Seeds, _ = imm.SelectSeedsIndexed(col, idx, opt.K, opt.Workers)
	rp.Select = time.Since(t0)
	sp.End()
	rp.Phases.Add(trace.SelectSeeds, rp.Select)
	top.End()
	rp.Wall = time.Since(start)

	// What a serving build does next: transcode the samples into the
	// byte-coded store. Not part of imm.Run, so outside the replay span.
	sp = tr.Start("rrr.transcode", "transcode", 0, 0)
	t0 = time.Now()
	rrr.FromCollection(col, nil)
	rp.Trans = time.Since(t0)
	sp.End()

	rp.Samples = col.Count()
	rp.Entries = col.TotalSize()
	rp.Store = col.Bytes()
	rp.IndexB = idx.Bytes()
	rp.Occ = st.FusedStats().Occupancy()
	rp.Bal = st.WorkBalance()
	return rp
}

// phaseShares returns each phase's share of the four compared phases.
func phaseShares(t trace.Times) [4]float64 {
	ps := [4]trace.Phase{trace.Estimation, trace.Sampling, trace.IndexBuild, trace.SelectSeeds}
	var total time.Duration
	for _, p := range ps {
		total += t.Get(p)
	}
	var out [4]float64
	for i, p := range ps {
		if total > 0 {
			out[i] = float64(t.Get(p)) / float64(total)
		}
	}
	return out
}

// checkSolve compares a replay with an imm.Run result.
func (r *run) checkSolve(res *imm.Result, rp replay) {
	r.check(rp.Theta == res.Theta && slices.Equal(rp.Seeds, res.Seeds),
		"solve: replay theta %d seeds %v != imm.Run theta %d seeds %v",
		rp.Theta, head(rp.Seeds), res.Theta, head(res.Seeds))
	r.check(rp.Samples == res.SamplesGenerated,
		"solve: replay drew %d samples, imm.Run %d", rp.Samples, res.SamplesGenerated)
}

// checkSpread compares the seeds' Monte Carlo spread with imm's estimate:
// they must agree within eps of the estimate plus four standard errors.
func (r *run) checkSpread(g *graph.Graph, res *imm.Result, seed uint64) {
	mc, se := diffuse.EstimateSpread(g, diffuse.IC, res.Seeds, mcTrials, 0, seed^0x3c)
	tol := solveEps*res.EstimatedSpread + 4*se
	r.line("spread check: Monte Carlo %.1f ± %.1f (%d cascades) vs estimate %.1f, tolerance %.1f",
		mc, se, mcTrials, res.EstimatedSpread, tol)
	r.check(math.Abs(mc-res.EstimatedSpread) <= tol,
		"solve: Monte Carlo spread %.1f vs EstimatedSpread %.1f beyond tolerance %.1f",
		mc, res.EstimatedSpread, tol)
}

func head(vs []graph.Vertex) []graph.Vertex { return vs[:min(len(vs), 8)] }

// runSolve: the paper's time-to-solution. Set-up is graph generation
// only; it runs setupRuns times before the window and again before every
// solve after the first, so setup_s is a median over set-ups spread
// across the same stretch of time as the solves. The window counts only
// time spent solving.
func runSolve(r *run) error {
	var (
		g      *graph.Graph
		setups []float64
	)
	setup := func() error {
		g = nil
		releaseMemory()
		t0 := time.Now()
		var err error
		g, err = makeGraph()
		setups = append(setups, secs(time.Since(t0)))
		return err
	}
	runs := setupRuns
	if r.tr != nil {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		if err := setup(); err != nil {
			return err
		}
	}
	opt := solveOptions(r.seed)

	if r.tr != nil {
		return traceSolve(r, g, opt)
	}

	var (
		solves []float64
		first  *imm.Result
		busy   time.Duration
	)
	for busy < r.window {
		if first != nil {
			if err := setup(); err != nil {
				return err
			}
		}
		releaseMemory()
		t0 := time.Now()
		res, err := imm.Run(g, opt)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		busy += d
		solves = append(solves, secs(d))
		if first == nil {
			first = res
		} else {
			r.check(res.Theta == first.Theta && slices.Equal(res.Seeds, first.Seeds),
				"solve: run %d gave theta %d seeds %v, first run theta %d seeds %v",
				len(solves), res.Theta, head(res.Seeds), first.Theta, head(first.Seeds))
		}
	}
	rss := peakRSSMB()

	r.checkSolve(first, replaySolve(g, opt, nil, ""))
	r.checkSpread(g, first, r.seed)

	ms := make([]float64, len(solves))
	for i, s := range solves {
		ms[i] = s * 1000
	}
	r.setEndToEnd(setups, ms, perSecond(len(ms), busy), rss)

	r.line("workload solve: %s x%g (%d vertices, %d edges), IC, k=%d, eps=%g, %d workers, theta %d",
		datasetName, datasetScale, g.NumVertices(), g.NumEdges(), solveK, solveEps, opt.Workers, first.Theta)
	r.line("%-14s %.3f s median of %d", "setup_s", median(setups), len(setups))
	r.line("%-14s %.3f s median of %d", "solve_s", median(solves), len(solves))
	r.timing("query", nil, 0.99)
	r.line("%-14s n/a (0 samples)", "query_qps")
	r.timing("delta", nil, 0.9)
	r.line("%-14s %d/%d", "failed_frac", r.failed, max(r.attempted, 1))
	r.line("%-14s %.1f MB", "peak_rss_mb", rss)
	return nil
}

// traceSolve is the traced run: for the window, an untraced imm.Run and
// the traced replay in turn, which must agree on theta, seeds and the
// phase split. Per-layer times are medians over the replays.
func traceSolve(r *run, g *graph.Graph, opt imm.Options) error {
	var (
		runs     []time.Duration
		rps      []replay
		tracks   []string
		phaseErr float64
	)
	start := time.Now()
	for len(rps) == 0 || time.Since(start) < r.window {
		// The untraced run and the replay take turns going first, and each
		// starts on a collected heap, so neither inherits the other's
		// garbage more often.
		var res *imm.Result
		solve := func() error {
			releaseMemory()
			t0 := time.Now()
			var err error
			res, err = imm.Run(g, opt)
			runs = append(runs, time.Since(t0))
			return err
		}
		if len(rps)%2 == 0 {
			if err := solve(); err != nil {
				return err
			}
		}
		track := fmt.Sprintf("replay%d", len(rps))
		releaseMemory()
		rp := replaySolve(g, opt, r.tr, track)
		if len(rps)%2 == 1 {
			if err := solve(); err != nil {
				return err
			}
		}
		r.checkSolve(res, rp)
		want, got := phaseShares(res.Phases), phaseShares(rp.Phases)
		for i := range want {
			phaseErr = max(phaseErr, math.Abs(want[i]-got[i]))
		}
		r.line("phases imm.Run  %s", res.Phases.String())
		r.line("phases %-8s %s", track, rp.Phases.String())
		rps = append(rps, rp)
		tracks = append(tracks, track)
	}
	r.check(phaseErr <= layerSumTolerance,
		"solve: replayed phase shares differ from Result.Phases shares by %.3f", phaseErr)
	r.reportLayerSums(LayerSums(r.tr.Spans(), tracks...))

	med := func(f func(replay) time.Duration) float64 {
		xs := make([]float64, len(rps))
		for i, rp := range rps {
			xs[i] = secs(f(rp))
		}
		return median(xs)
	}
	rp := rps[len(rps)-1] // counts repeat exactly across replays
	runWall := median(durations(runs))
	replayWall := med(func(rp replay) time.Duration { return rp.Wall })
	r.set("sampling.estimate_s", med(func(rp replay) time.Duration { return rp.EstSamp }))
	r.set("sampling.final_s", med(func(rp replay) time.Duration { return rp.Final }))
	r.set("sampling.samples", float64(rp.Samples))
	r.set("sampling.entries", float64(rp.Entries))
	r.set("sampling.ns_per_entry", 1e9*med(func(rp replay) time.Duration { return rp.EstSamp + rp.Final })/float64(max(rp.Entries, 1)))
	r.set("sampling.lane_occupancy", rp.Occ)
	r.set("sampling.balance", rp.Bal)
	r.set("estimate.rounds", float64(rp.Rounds))
	r.set("estimate.select_s", med(func(rp replay) time.Duration { return rp.EstSel }))
	r.set("estimate.overshoot", float64(int64(rp.Samples)-rp.Theta))
	r.set("rrr.index_build_s", med(func(rp replay) time.Duration { return rp.Index }))
	r.set("rrr.transcode_s", med(func(rp replay) time.Duration { return rp.Trans }))
	r.set("rrr.store_mb", float64(rp.Store)/(1<<20))
	r.set("rrr.index_mb", float64(rp.IndexB)/(1<<20))
	r.set("select.s", med(func(rp replay) time.Duration { return rp.Select }))
	r.set("trace.overhead_frac", replayWall/runWall-1)
	r.set("trace.phase_err", phaseErr)
	r.line("traced replay %.3f s vs untraced imm.Run %.3f s, medians of %d (tracing overhead %+.1f%%)",
		replayWall, runWall, len(rps), 100*(replayWall/runWall-1))
	r.line("theta %d, samples %d (overshoot %d), %d estimation rounds", rp.Theta, rp.Samples,
		int64(rp.Samples)-rp.Theta, rp.Rounds)
	return nil
}

// durations converts durations to seconds.
func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = secs(d)
	}
	return out
}
