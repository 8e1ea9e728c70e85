package main

import (
	"net/http"

	"influmax/internal/server"
	"influmax/internal/trace"
)

// selectMetrics derives the select layer's metrics from the referee's
// in-process calls on the served sketch: the fixed cost (k=1, timed five
// times), the per-seed slope over the distinct plain requests it timed,
// and the median time of each other query shape.
func (r *run) selectMetrics(reqs []*request, ref *referee) {
	one := request{Kind: reqPlain, K: 1, Path: "/v1/seeds"}
	var k1 []float64
	for i := 0; i < 5; i++ {
		_, d, err := ref.want(&one)
		if err != nil {
			r.fail("in-process k=1: %v", err)
		}
		k1 = append(k1, millis(d))
	}
	r.set("select.k1_ms", median(k1))

	byKind := map[reqKind][]float64{}
	var ks, ms []float64
	seen := map[string]bool{}
	for _, rq := range reqs {
		d, ok := ref.Times[rq.Key]
		if !ok || seen[rq.Key] {
			continue
		}
		seen[rq.Key] = true
		byKind[rq.Kind] = append(byKind[rq.Kind], millis(d))
		if rq.Kind == reqPlain {
			ks = append(ks, float64(rq.K))
			ms = append(ms, millis(d))
		}
	}
	r.set("select.per_seed_ms", slope(ks, ms))
	for kind, name := range map[reqKind]string{
		reqBudgeted: "select.budgeted_ms", reqTargeted: "select.targeted_ms",
		reqBlocked: "select.blocked_ms", reqSpread: "select.spread_ms",
	} {
		if xs := byKind[kind]; len(xs) > 0 {
			r.set(name, median(xs))
		}
	}
	r.line("in-process select: k=1 %.3f ms, %.4f ms per seed over %d plain k values", median(k1), slope(ks, ms), len(ks))
}

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// serverMetrics derives the server layer's metrics: HTTP latency minus the
// in-process time of the same request, the mean reply size, and the
// rejection and timeout counters the server exports.
func (r *run) serverMetrics(c *http.Client, base string, h *countingHandler, traced []exchange, ref *referee) {
	var over []float64
	for i := range traced {
		x := &traced[i]
		if d, ok := ref.Times[x.Req.Key]; ok && !x.Failed() {
			over = append(over, millis(x.Latency-d))
		}
	}
	r.set("server.overhead_ms", median(over))
	if n := h.Requests.Load(); n > 0 {
		r.set("server.resp_kb", float64(h.BytesOut.Load())/float64(n)/1024)
	}
	for counter, name := range map[string]string{"server/rejected": "server.rejected", "server/timeouts": "server.timeouts"} {
		v, err := counterValue(c, base+"/v1/metrics", counter)
		if err != nil {
			r.fail("reading %s: %v", counter, err)
			continue
		}
		r.set(name, float64(v))
	}
}

// sketchMetrics reports the rrr layer of a served sketch, from the build
// phases the program recorded (the transcode is accounted to Other).
func (r *run) sketchMetrics(sk *server.Sketch) {
	r.set("rrr.index_build_s", secs(sk.BuildPhases.Get(trace.IndexBuild)))
	r.set("rrr.transcode_s", secs(sk.BuildPhases.Get(trace.Other)))
	r.set("rrr.store_mb", float64(sk.Col.Bytes())/(1<<20))
	r.set("rrr.index_mb", float64(sk.Idx.Bytes())/(1<<20))
}
