package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/server"
)

// The routed workload: a width-3 fleet built by cluster.BuildShards, each
// shard mounted in a shard-mode server.New, behind cluster.NewRouter and
// NewRouterServer, all over loopback HTTP.
const (
	routedEps    = 0.3
	routedKMax   = 100
	routedWidth  = 3
	routedConns  = 2
	shardTimeout = 30 * time.Second
)

// fleet is one set-up of the routed workload.
type fleet struct {
	g      *graph.Graph
	shards []*cluster.Shard
	shardH []*countingHandler
	shardL []*listener
	conns  []cluster.Conn
	l      *listener
	build  time.Duration
}

func (f *fleet) Close() {
	if f.l != nil {
		f.l.Close()
	}
	for _, c := range f.conns {
		c.Close()
	}
	for _, l := range f.shardL {
		l.Close()
	}
}

// setupRouted builds the shards and the fleet; with a tracer, every shard
// connection is wrapped in a timedConn.
func setupRouted(seed uint64, tr *Tracer) (*fleet, error) {
	const track = "setup"
	f := &fleet{}
	sp := tr.Start("setup.graph", track, 0, 0)
	g, err := makeGraph()
	if err != nil {
		return nil, err
	}
	sp.End()
	f.g = g

	sp = tr.Start("cluster.build", track, 0, 0)
	t0 := time.Now()
	f.shards, err = cluster.BuildShards(g, cluster.BuildOptions{
		K: routedKMax, Epsilon: routedEps, Model: diffuse.IC, Seed: seed, Shards: routedWidth,
	})
	if err != nil {
		return nil, err
	}
	f.build = time.Since(t0)
	sp.End()

	sp = tr.Start("setup.fleet", track, 0, 0)
	defer sp.End()
	for i, sh := range f.shards {
		srv, err := server.New(server.Config{
			Graph: g, Model: diffuse.IC, Epsilon: routedEps, KMax: routedKMax, Seed: seed,
			MaxConcurrent: 2, MaxQueue: 16, QueryTimeout: 60 * time.Second, ClusterShard: sh,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		h := newCountingHandler(srv.Handler(), "shard.handler", "shardsrv"+strconv.Itoa(i), tr)
		l, err := listen(h)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.shardH = append(f.shardH, h)
		f.shardL = append(f.shardL, l)
		var c cluster.Conn = cluster.NewHTTPConn(l.URL, i, shardTimeout)
		if tr != nil {
			c = newTimedConn(c, i, tr)
		}
		f.conns = append(f.conns, c)
	}
	rt, err := cluster.NewRouter(f.conns, metrics.NewRegistry())
	if err != nil {
		f.Close()
		return nil, err
	}
	h := newCountingHandler(cluster.NewRouterServer(rt, cluster.RouterServerConfig{}).Handler(), "router.handler", "router", tr)
	if f.l, err = listen(h); err != nil {
		f.Close()
		return nil, err
	}
	return f, ready(f.l.URL + "/healthz")
}

// routedReply is the router's POST /v1/seeds reply.
type routedReply struct {
	answer
	Degraded     bool  `json:"degraded"`
	FailedShards []int `json:"failedShards"`
	Rounds       int   `json:"rounds"`
}

// decodeRouted accepts only non-degraded replies.
func decodeRouted(body []byte) (answer, error) {
	var rep routedReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return answer{}, err
	}
	if rep.Degraded || len(rep.FailedShards) > 0 {
		return answer{}, errors.New("degraded reply: failed shards " + string(body))
	}
	return rep.answer, nil
}

// singleProcess builds the single-process sketch the fleet must match.
func singleProcess(g *graph.Graph, seed uint64) (*server.Sketch, error) {
	key := server.SketchKey{GraphDigest: g.Digest(), Model: diffuse.IC, Epsilon: routedEps, KMax: routedKMax, Seed: seed}
	return server.BuildSketch(g, key, 0, 0, 0, 0, nil)
}

// runRouted: a closed loop of two clients against the router.
func runRouted(r *run) error {
	f, setups, builds, err := setupRepeated(r, func() (*fleet, time.Duration, error) {
		f, err := setupRouted(r.seed, r.tr)
		if err != nil {
			return nil, 0, err
		}
		return f, f.build, nil
	})
	if err != nil {
		return err
	}
	defer f.Close()
	reqs := newQueryStream(r.seed, f.g, routedMix)
	c := newClient(routedConns)
	defer closeClient(c)
	r.line("workload routed: %s x%g (%d vertices), IC, eps=%g, kMax=%d, width %d, %d closed-loop clients, k <= %d",
		datasetName, datasetScale, f.g.NumVertices(), routedEps, routedKMax, routedWidth, routedConns, routedMix.KMax)

	var xs, traced []exchange
	var elapsed time.Duration
	var wire int64
	if r.tr != nil {
		var xa []exchange
		xa, traced, wire = r.traceLoadRouted(c, f, reqs)
		xs = append(xa, traced...)
	} else {
		t0 := time.Now()
		xs = closedLoop(c, nil, "", f.l.URL, reqs, routedConns, r.window)
		elapsed = time.Since(t0)
	}
	rss := peakRSSMB()

	sk, err := singleProcess(f.g, r.seed)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	ref := newReferee(func(rq *request) (answer, time.Duration, error) {
		return sketchAnswer(sk, rq, workers, true)
	})
	r.checkExchanges(xs, ref, decodeRouted)

	if r.tr != nil {
		r.routerMetrics(traced, wire)
		var store, index int64
		for _, sh := range f.shards {
			store += sh.Col.Bytes()
			index += sh.Idx.Bytes()
		}
		r.set("rrr.store_mb", float64(store)/(1<<20))
		r.set("rrr.index_mb", float64(index)/(1<<20))
		r.set("cluster.build_s", secs(f.build))
		r.reportLayerSums(LayerSums(linkFanOut(r.tr.Spans()), clientTracks(routedConns)...))
		return nil
	}

	lat := latenciesMS(xs)
	r.setEndToEnd(setups, lat, perSecond(len(lat), elapsed), rss)
	r.servingReport(setups, builds, lat, elapsed, nil, rss)
	return nil
}

// traceLoadRouted is traceLoad for the fleet, also counting the shard
// API bytes of the traced quarters.
func (r *run) traceLoadRouted(c *http.Client, f *fleet, reqs *queryStream) (untraced, traced []exchange, wire int64) {
	r.alternate(func(tag string, on bool, d time.Duration) {
		before := f.wireBytes()
		xs := closedLoop(c, r.tr, tag, f.l.URL, reqs, routedConns, d)
		if on {
			traced = append(traced, xs...)
			wire += f.wireBytes() - before
		} else {
			untraced = append(untraced, xs...)
		}
	})
	r.overhead("query", latenciesMS(untraced), latenciesMS(traced))
	return untraced, traced, wire
}

// wireBytes is the shard API traffic so far, both directions.
func (f *fleet) wireBytes() int64 {
	var n int64
	for _, h := range f.shardH {
		n += h.BytesIn.Load() + h.BytesOut.Load()
	}
	return n
}

// routerMetrics derives the cluster layer's metrics from the timedConn
// spans of the traced quarters: per query, the parallel session start, then
// per round the purge fan-out across shards.
func (r *run) routerMetrics(traced []exchange, wire int64) {
	sessions := map[int64]map[string][]Span{} // session -> op -> spans
	var ops []float64
	for _, s := range r.tr.Spans() {
		if s.Layer() != "cluster" || s.Req == 0 {
			continue
		}
		ops = append(ops, millis(s.Dur()))
		m := sessions[s.Req]
		if m == nil {
			m = map[string][]Span{}
			sessions[s.Req] = m
		}
		m[s.Name] = append(m[s.Name], s)
	}
	var starts, rounds, shares []float64
	var sessWall time.Duration
	for _, m := range sessions {
		st := m["cluster.start"]
		if len(st) == 0 {
			continue
		}
		starts = append(starts, millis(wall(st)))
		// The i-th purge on each shard belongs to round i.
		byShard := map[string][]Span{}
		for _, s := range m["cluster.purge"] {
			byShard[s.Track] = append(byShard[s.Track], s)
		}
		for i := 0; ; i++ {
			var round []Span
			for _, ss := range byShard {
				sort.Slice(ss, func(a, b int) bool { return ss[a].Start < ss[b].Start })
				if i < len(ss) {
					round = append(round, ss[i])
				}
			}
			if len(round) == 0 {
				break
			}
			w := wall(round)
			rounds = append(rounds, millis(w))
			var slowest time.Duration
			for _, s := range round {
				slowest = max(slowest, s.Dur())
			}
			if w > 0 {
				shares = append(shares, float64(slowest)/float64(w))
			}
		}
		var all []Span
		for _, ss := range m {
			all = append(all, ss...)
		}
		sessWall += wall(all)
	}
	var replyRounds, lat float64
	var n int
	for i := range traced {
		var rep routedReply
		if traced[i].Failed() || json.Unmarshal(traced[i].Body, &rep) != nil {
			continue
		}
		replyRounds += float64(rep.Rounds)
		lat += millis(traced[i].Latency)
		n++
	}
	if n == 0 || len(starts) == 0 {
		r.fail("routed: no traced queries")
		return
	}
	r.set("router.rounds", replyRounds/float64(n))
	r.set("router.start_ms", median(starts))
	r.set("router.round_ms", median(rounds))
	r.set("router.slowest_share", mean(shares))
	r.set("router.shard_op_ms", median(ops))
	r.set("router.wire_kb_per_query", float64(wire)/1024/float64(n))
	r.set("router.overhead_ms", lat/float64(n)-millis(sessWall)/float64(len(sessions)))
	r.set("shard.sessions_max", float64(sessionsMax(r.tr.Spans())))
	r.line("router: %d traced queries, %d sessions, %.2f rounds per query, start p50 %.3f ms, round p50 %.3f ms",
		n, len(sessions), replyRounds/float64(n), median(starts), median(rounds))
}

// linkFanOut parents the fleet's spans, which carry no link to the query
// that caused them: a shard call carries only the router's session id, and
// a shard handler sees no header of the benchmark's. Each session's calls
// go under the router handler span that contains them all, and each shard
// handler span under the call on its shard that was in flight when it
// started (the call can return before the handler span closes, once the
// reply is on the wire). What stays
// unmatched stays top-level, and its time is missing from the layer sum.
func linkFanOut(spans []Span) []Span {
	var handlers []Span
	sessions := map[int64][]int{}
	for i, s := range spans {
		switch {
		case s.Name == "router.handler" && s.Parent != 0:
			handlers = append(handlers, s)
		case s.Layer() == "cluster" && s.Req != 0:
			sessions[s.Req] = append(sessions[s.Req], i)
		}
	}
	var (
		ids    []int64
		bounds []Span
	)
	for id, members := range sessions {
		b := spans[members[0]]
		for _, m := range members[1:] {
			b.Start, b.End = min(b.Start, spans[m].Start), max(b.End, spans[m].End)
		}
		ids, bounds = append(ids, id), append(bounds, b)
	}
	for i, h := range match(handlers, bounds, true) {
		if h >= 0 {
			for _, m := range sessions[ids[i]] {
				spans[m].Parent = handlers[h].ID
			}
		}
	}
	for slot := 0; slot < routedWidth; slot++ {
		var calls, served []Span
		var servedAt []int
		for i, s := range spans {
			switch {
			case s.Layer() == "cluster" && s.Track == "shard"+strconv.Itoa(slot):
				calls = append(calls, s)
			case s.Name == "shard.handler" && s.Track == "shardsrv"+strconv.Itoa(slot):
				served, servedAt = append(served, s), append(servedAt, i)
			}
		}
		for i, c := range match(calls, served, false) {
			if c >= 0 {
				spans[servedAt[i]].Parent = calls[c].ID
			}
		}
	}
	return spans
}

// wall is the time from the first span's start to the last span's end.
func wall(ss []Span) time.Duration {
	lo, hi := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		lo, hi = min(lo, s.Start), max(hi, s.End)
	}
	return hi - lo
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sessionsMax is the most sessions any one shard held open at once: a
// session opens when its start call begins and closes when its end call
// returns.
func sessionsMax(spans []Span) int {
	type event struct {
		at    time.Duration
		delta int
	}
	byShard := map[string][]event{}
	for _, s := range spans {
		switch s.Name {
		case "cluster.start":
			byShard[s.Track] = append(byShard[s.Track], event{s.Start, 1})
		case "cluster.end":
			byShard[s.Track] = append(byShard[s.Track], event{s.End, -1})
		}
	}
	best := 0
	for _, evs := range byShard {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].at != evs[j].at {
				return evs[i].at < evs[j].at
			}
			return evs[i].delta < evs[j].delta
		})
		open := 0
		for _, e := range evs {
			open += e.delta
			best = max(best, open)
		}
	}
	return best
}
