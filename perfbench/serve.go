package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/server"
)

// The serve workload's sketch: LT on LT-normalised weighted-cascade
// weights, so set-up runs the LT walk kernel and selection sees
// path-shaped samples.
const (
	serveEps   = 0.3
	serveKMax  = 100
	serveConns = 2
)

// servedSketch is one set-up of a single-process immserve: the sketch, the
// server answering from it, its instrumented handler and its listener.
type servedSketch struct {
	g     *graph.Graph
	sk    *server.Sketch
	srv   *server.Server
	h     *countingHandler
	l     *listener
	build time.Duration // the IMM pipeline inside set-up
}

func (s *servedSketch) Close() {
	s.l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}

// ready waits until url answers 200.
func ready(url string) error {
	c := newClient(1)
	defer closeClient(c)
	return waitReady(c, url)
}

// setupServe generates the graph, builds the sketch with
// server.BuildSketch, installs it through Config.Sketch and starts
// serving over loopback HTTP, with immserve's defaults otherwise.
func setupServe(seed uint64, tr *Tracer) (*servedSketch, error) {
	const track = "setup"
	s := &servedSketch{}
	sp := tr.Start("setup.graph", track, 0, 0)
	g, err := makeGraph()
	if err != nil {
		return nil, err
	}
	g.NormalizeLT()
	sp.End()
	s.g = g

	sp = tr.Start("setup.build", track, 0, 0)
	t0 := time.Now()
	key := server.SketchKey{GraphDigest: g.Digest(), Model: diffuse.LT, Epsilon: serveEps, KMax: serveKMax, Seed: seed}
	s.sk, err = server.BuildSketch(g, key, 0, 0, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	s.build = time.Since(t0)
	sp.End()

	sp = tr.Start("setup.server", track, 0, 0)
	defer sp.End()
	s.srv, err = server.New(server.Config{
		Graph: g, Model: diffuse.LT, Epsilon: serveEps, KMax: serveKMax, Seed: seed,
		MaxConcurrent: 2, MaxQueue: 16, QueryTimeout: 60 * time.Second, Sketch: s.sk,
	})
	if err != nil {
		return nil, err
	}
	s.h = newCountingHandler(s.srv.Handler(), "server.handler", "server", tr)
	if s.l, err = listen(s.h); err != nil {
		return nil, err
	}
	return s, ready(s.l.URL + "/healthz")
}

// setupRepeated sets the workload up setupRuns times (once when traced),
// keeps the last set-up and closes the others. It returns the set-up
// times and the build times inside them, in seconds.
func setupRepeated[T interface{ Close() }](r *run, setup func() (T, time.Duration, error)) (T, []float64, []float64, error) {
	var (
		kept          T
		setups, build []float64
	)
	runs := setupRuns
	if r.tr != nil {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		releaseMemory()
		t0 := time.Now()
		s, b, err := setup()
		if err != nil {
			return kept, nil, nil, err
		}
		setups = append(setups, secs(time.Since(t0)))
		build = append(build, secs(b))
		if i < runs-1 {
			s.Close()
			continue
		}
		kept = s
	}
	return kept, setups, build, nil
}

// runServe: a resident static sketch answering a closed loop of two
// clients over loopback HTTP.
func runServe(r *run) error {
	s, setups, builds, err := setupRepeated(r, func() (*servedSketch, time.Duration, error) {
		s, err := setupServe(r.seed, r.tr)
		if err != nil {
			return nil, 0, err
		}
		return s, s.build, nil
	})
	if err != nil {
		return err
	}
	defer s.Close()
	workers := runtime.GOMAXPROCS(0)
	reqs := newQueryStream(r.seed, s.g, serveMix)
	c := newClient(serveConns)
	defer closeClient(c)
	ref := r.inprocReferee(s.sk, workers)
	r.line("workload serve: %s x%g (%d vertices), LT, eps=%g, kMax=%d, theta %d, %d closed-loop clients",
		datasetName, datasetScale, s.g.NumVertices(), serveEps, serveKMax, s.sk.Theta, serveConns)

	if r.tr != nil {
		xa, xb := r.traceLoad(c, s.l.URL, reqs, serveConns)
		r.checkExchanges(append(xa, xb...), ref, decodeAnswer)
		r.selectMetrics(reqs.Dealt(), ref)
		r.serverMetrics(c, s.l.URL, s.h, xb, ref)
		r.sketchMetrics(s.sk)
		r.reportLayerSums(LayerSums(r.tr.Spans(), clientTracks(serveConns)...))
		return nil
	}

	t0 := time.Now()
	xs := closedLoop(c, nil, "", s.l.URL, reqs, serveConns, r.window)
	elapsed := time.Since(t0)
	rss := peakRSSMB()
	r.checkExchanges(xs, ref, decodeAnswer)

	lat := latenciesMS(xs)
	r.setEndToEnd(setups, lat, perSecond(len(lat), elapsed), rss)
	r.servingReport(setups, builds, lat, elapsed, nil, rss)
	return nil
}

// clientTracks names the closed-loop client tracks of the traced
// quarters, plus extra tracks.
func clientTracks(clients int, extra ...string) []string {
	var out []string
	for _, tag := range tracedTags {
		for i := 0; i < clients; i++ {
			out = append(out, fmt.Sprintf("%sclient%d", tag, i))
		}
	}
	return append(out, extra...)
}

// servingReport prints the nine end-to-end metrics of a serving workload.
func (r *run) servingReport(setups, builds, lat []float64, elapsed time.Duration, delta []float64, rss float64) {
	r.line("%-14s %.3f s median of %d", "setup_s", median(setups), len(setups))
	r.line("%-14s %.3f s median of %d (the IMM build inside set-up)", "solve_s", median(builds), len(builds))
	r.timing("query", lat, tailQuantile(len(lat)))
	r.line("%-14s %.1f /s (%d in %.2f s)", "query_qps", perSecond(len(lat), elapsed), len(lat), elapsed.Seconds())
	r.timing("delta", delta, tailQuantile(len(delta)))
	r.line("%-14s %d/%d", "failed_frac", r.failed, max(r.attempted, 1))
	r.line("%-14s %.1f MB", "peak_rss_mb", rss)
}

// alternate runs load for four quarters of the window, untraced and
// traced in turn, so warm-up and drift fall on both sides of the tracing
// overhead. A traced quarter's client tracks carry the tag it is given;
// tracedTags lists them.
func (r *run) alternate(load func(tag string, traced bool, d time.Duration)) {
	for q := 0; q < 4; q++ {
		traced := q%2 == 1
		if !traced {
			r.tr.Pause()
		}
		load(fmt.Sprintf("q%d.", q), traced, r.window/4)
		r.tr.Resume()
	}
}

// tracedTags are the track tags of alternate's traced quarters.
var tracedTags = []string{"q1.", "q3."}

// overhead records the tracing overhead: the traced ops' median latency
// over the untraced ops', minus one.
func (r *run) overhead(what string, untraced, traced []float64) {
	if len(untraced) == 0 || len(traced) == 0 {
		r.fail("tracing overhead: %d untraced and %d traced %s ops", len(untraced), len(traced), what)
		return
	}
	pa, pb := median(untraced), median(traced)
	r.set("trace.overhead_frac", pb/pa-1)
	r.line("untraced %s p50 %.3f ms (%d), traced %.3f ms (%d): tracing overhead %+.1f%%",
		what, pa, len(untraced), pb, len(traced), 100*(pb/pa-1))
}

// traceLoad runs the closed loop over alternating untraced and traced
// quarters of the window.
func (r *run) traceLoad(c *http.Client, base string, reqs *queryStream, clients int) (untraced, traced []exchange) {
	r.alternate(func(tag string, on bool, d time.Duration) {
		xs := closedLoop(c, r.tr, tag, base, reqs, clients, d)
		if on {
			traced = append(traced, xs...)
		} else {
			untraced = append(untraced, xs...)
		}
	})
	r.overhead("query", latenciesMS(untraced), latenciesMS(traced))
	return untraced, traced
}
