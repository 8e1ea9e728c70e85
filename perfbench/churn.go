package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/server"
)

// The churn workload: a dynamic immserve (explicit weight policy, IC) with
// one closed-loop reader and one open-loop writer. The writer's rate is
// set so a batch usually applies before the next is due, while a slow
// repair lets the next batches queue and coalesce.
const (
	churnEps      = 0.5
	churnKMax     = 100
	churnOps      = 8
	churnInterval = 95 * time.Millisecond
	// churnWriterConns lets a due batch go out while another is still in
	// flight, which is what lets the server coalesce queued batches.
	churnWriterConns = 4
)

// churnServer is one set-up of the dynamic server.
type churnServer struct {
	g     *graph.Graph
	srv   *server.Server
	h     *countingHandler
	l     *listener
	build time.Duration
}

func (s *churnServer) Close() {
	s.l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}

func churnOptions(seed uint64) imm.Options {
	return imm.Options{K: churnKMax, Epsilon: churnEps, Model: diffuse.IC, Workers: runtime.GOMAXPROCS(0), Seed: seed}
}

func setupChurn(seed uint64, tr *Tracer) (*churnServer, error) {
	const track = "setup"
	s := &churnServer{}
	sp := tr.Start("setup.graph", track, 0, 0)
	g, err := makeGraph()
	if err != nil {
		return nil, err
	}
	sp.End()
	s.g = g

	// In dynamic mode server.New builds the sketch: the full IMM run.
	sp = tr.Start("setup.build", track, 0, 0)
	t0 := time.Now()
	s.srv, err = server.New(server.Config{
		Graph: g, Model: diffuse.IC, Epsilon: churnEps, KMax: churnKMax, Seed: seed,
		MaxConcurrent: 2, MaxQueue: 16, QueryTimeout: 60 * time.Second,
		Dynamic: true, WeightPolicy: imm.WeightsExplicit,
	})
	if err != nil {
		return nil, err
	}
	s.build = time.Since(t0)
	sp.End()

	sp = tr.Start("setup.server", track, 0, 0)
	defer sp.End()
	s.h = newCountingHandler(s.srv.Handler(), "server.handler", "server", tr)
	if s.l, err = listen(s.h); err != nil {
		return nil, err
	}
	return s, ready(s.l.URL + "/healthz")
}

// deltaReply is the part of a POST /v1/graph/delta reply the checks read.
type deltaReply struct {
	Epoch              uint64 `json:"epoch"`
	Applied            int    `json:"applied"`
	Candidates         int    `json:"candidates"`
	SamplesInvalidated int64  `json:"samplesInvalidated"`
	SamplesExtended    int64  `json:"samplesExtended"`
	Coalesced          int    `json:"coalesced"`
}

// write is one delta batch as the open-loop writer saw it.
type write struct {
	Batch     int
	Due, Sent time.Time
	Done      time.Time
	Status    int
	Body      []byte
	Err       error
}

// Latency is the time from when the batch was due to its reply.
func (w *write) Latency() time.Duration { return w.Done.Sub(w.Due) }

// openLoop posts batch first, first+1, ... on a fixed schedule, one every
// interval, whether or not earlier batches have been answered, until the
// window closes; then it waits for every reply.
func openLoop(c *http.Client, tr *Tracer, url string, bodies [][]byte, first int, interval, window time.Duration) ([]write, error) {
	start := time.Now()
	var (
		mu  sync.Mutex
		out []write
		wg  sync.WaitGroup
	)
	for i := 0; time.Duration(i)*interval < window; i++ {
		if first+i >= len(bodies) {
			wg.Wait()
			return out, fmt.Errorf("open loop ran out of generated batches at %d", first+i)
		}
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(b int, due time.Time) {
			defer wg.Done()
			w := write{Batch: b, Due: due, Sent: time.Now()}
			// Negative request ids keep batches apart from the reader's.
			w.Status, w.Body, _, w.Err = post(c, tr, url, bodies[b], "client.delta", "writer", int64(-1-b))
			w.Done = time.Now()
			mu.Lock()
			out = append(out, w)
			mu.Unlock()
		}(first+i, due)
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].Batch < out[j].Batch })
	return out, nil
}

// churnLoad runs the reader and the writer together for one window.
func churnLoad(s *churnServer, tr *Tracer, tag string, reads *queryStream, bodies [][]byte, firstBatch int, window time.Duration) ([]exchange, []write, time.Duration, error) {
	rc, wc := newClient(1), newClient(churnWriterConns)
	defer closeClient(rc)
	defer closeClient(wc)
	var (
		xs []exchange
		wg sync.WaitGroup
	)
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		xs = closedLoop(rc, tr, tag, s.l.URL, reads, 1, window)
	}()
	ws, err := openLoop(wc, tr, s.l.URL+"/v1/graph/delta", bodies, firstBatch, churnInterval, window)
	wg.Wait()
	return xs, ws, time.Since(t0), err
}

// pass is one repair pass of the server: the batches it folded in, in
// the order they were due.
type pass struct {
	Epoch   uint64
	Batches []int
	Reply   deltaReply
}

// checkChurn checks the reads and writes of a churn run and groups the
// writes into the server's repair passes.
func (r *run) checkChurn(xs []exchange, ws []write) []pass {
	sort.Slice(xs, func(i, j int) bool { return xs[i].ReqID < xs[j].ReqID })
	var last uint64
	for i := range xs {
		x := &xs[i]
		if x.Failed() {
			r.fail("read %d: status %d, error %v: %s", x.ReqID, x.Status, x.Err, x.Body)
			continue
		}
		var rep struct {
			Seeds      []graph.Vertex `json:"seeds"`
			DeltaEpoch uint64         `json:"deltaEpoch"`
		}
		if err := json.Unmarshal(x.Body, &rep); err != nil || len(rep.Seeds) != x.Req.K {
			r.fail("read %d: %d seeds for k=%d (%v)", x.ReqID, len(rep.Seeds), x.Req.K, err)
			continue
		}
		r.check(rep.DeltaEpoch >= last, "read %d: deltaEpoch went back from %d to %d", x.ReqID, last, rep.DeltaEpoch)
		last = rep.DeltaEpoch
	}

	byEpoch := map[uint64]*pass{}
	for i := range ws {
		w := &ws[i]
		if w.Err != nil || w.Status != http.StatusOK {
			r.fail("batch %d: status %d, error %v: %s", w.Batch, w.Status, w.Err, w.Body)
			continue
		}
		var rep deltaReply
		if err := json.Unmarshal(w.Body, &rep); err != nil {
			r.fail("batch %d: %v", w.Batch, err)
			continue
		}
		p := byEpoch[rep.Epoch]
		if p == nil {
			p = &pass{Epoch: rep.Epoch, Reply: rep}
			byEpoch[rep.Epoch] = p
		}
		p.Batches = append(p.Batches, w.Batch)
		r.ok()
	}
	passes := make([]pass, 0, len(byEpoch))
	for _, p := range byEpoch {
		passes = append(passes, *p)
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].Epoch < passes[j].Epoch })
	for i, p := range passes {
		slices.Sort(p.Batches)
		r.check(p.Epoch == uint64(i+1), "repair pass epochs are not 1..%d: found %d at %d", len(passes), p.Epoch, i)
		r.check(max(p.Reply.Coalesced, 1) == len(p.Batches),
			"epoch %d: reply says %d batches coalesced, %d replies carry it", p.Epoch, p.Reply.Coalesced, len(p.Batches))
	}
	return passes
}

// appliedOrder reads the batches in the order the server applied them from
// its delta log: entry e is the merged batch of pass e, the pass's batches
// back to back in the order they reached the server's queue, which under
// coalescing can differ from the order they were due. Each entry must be
// exactly its pass's batches, each intact.
func (r *run) appliedOrder(log []graph.Delta, batches []graph.Delta, passes []pass) [][]int {
	if !r.check(len(log) == len(passes), "the server logged %d repair passes, replies name %d", len(log), len(passes)) {
		return nil
	}
	order := make([][]int, len(passes))
	for e, p := range passes {
		entry, left := log[e], slices.Clone(p.Batches)
		for len(entry) > 0 {
			i := slices.IndexFunc(left, func(b int) bool {
				return len(batches[b]) <= len(entry) && slices.Equal(entry[:len(batches[b])], batches[b])
			})
			if i < 0 {
				break
			}
			order[e] = append(order[e], left[i])
			entry = entry[len(batches[left[i]]):]
			left = slices.Delete(left, i, i+1)
		}
		if !r.check(len(entry) == 0 && len(left) == 0,
			"epoch %d: the server's log entry is not batches %v back to back", p.Epoch, p.Batches) {
			return nil
		}
	}
	return order
}

// replayChurn feeds the same passes, each pass's batches in the order the
// server applied them, to an in-process DynamicSketch and checks each
// pass's repair counters against the server's reply.
func (r *run) replayChurn(g *graph.Graph, seed uint64, batches []graph.Delta, passes []pass, order [][]int) (*imm.DynamicSketch, []imm.BatchResult, []time.Duration, error) {
	dyn, _, err := imm.NewDynamicSketch(g, churnOptions(seed), imm.WeightsExplicit)
	if err != nil {
		return nil, nil, nil, err
	}
	var (
		results []imm.BatchResult
		times   []time.Duration
	)
	for e, p := range passes {
		var merged graph.Delta
		for _, b := range order[e] {
			merged = append(merged, batches[b]...)
		}
		sp := r.tr.Start("delta.apply", "replay", 0, int64(p.Epoch))
		t0 := time.Now()
		br, err := dyn.ApplyDelta(merged)
		times = append(times, time.Since(t0))
		sp.End()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("replaying epoch %d: %w", p.Epoch, err)
		}
		results = append(results, br)
		got := deltaReply{Epoch: br.Epoch, Applied: br.Ops, Candidates: br.Candidates,
			SamplesInvalidated: br.SamplesInvalidated, SamplesExtended: br.SamplesExtended, Coalesced: p.Reply.Coalesced}
		r.check(got == p.Reply, "epoch %d: in-process repair %+v, server replied %+v", p.Epoch, got, p.Reply)
	}
	return dyn, results, times, nil
}

// replayServer checks a finished churn run end to end: replies, the
// server's log, the replayed repairs and the final answer.
func (r *run) replayServer(s *churnServer, seed uint64, batches []graph.Delta, xs []exchange, ws []write) ([]imm.BatchResult, []time.Duration, error) {
	passes := r.checkChurn(xs, ws)
	order := r.appliedOrder(s.srv.ServingSketch().Deltas, batches, passes)
	if order == nil {
		return nil, nil, nil
	}
	dyn, results, times, err := r.replayChurn(s.g, seed, batches, passes, order)
	if err != nil {
		return nil, nil, err
	}
	r.checkFinal(s, dyn)
	return results, times, nil
}

// checkFinal compares the final served answer with the replayed sketch.
func (r *run) checkFinal(s *churnServer, dyn *imm.DynamicSketch) {
	c := newClient(1)
	defer closeClient(c)
	rq := request{Kind: reqPlain, K: churnKMax, Path: "/v1/seeds"}
	st, body, _, err := post(c, nil, s.l.URL+rq.Path, rq.encode(), "client.final", "", 0)
	var rep struct {
		Seeds      []graph.Vertex `json:"seeds"`
		DeltaEpoch uint64         `json:"deltaEpoch"`
	}
	if err == nil && st == http.StatusOK {
		err = json.Unmarshal(body, &rep)
	}
	if err != nil || st != http.StatusOK {
		r.fail("final read: status %d, error %v", st, err)
		return
	}
	want, _ := dyn.Query(churnKMax, 0)
	r.check(rep.DeltaEpoch == dyn.Epoch() && slices.Equal(rep.Seeds, want),
		"final answer at epoch %d %v, in-process DynamicSketch at epoch %d %v",
		rep.DeltaEpoch, head(rep.Seeds), dyn.Epoch(), head(want))
}

// runChurn: reads beside an open-loop stream of delta batches.
func runChurn(r *run) error {
	s, setups, builds, err := setupRepeated(r, func() (*churnServer, time.Duration, error) {
		s, err := setupChurn(r.seed, r.tr)
		if err != nil {
			return nil, 0, err
		}
		return s, s.build, nil
	})
	if err != nil {
		return err
	}
	defer s.Close()
	reads := newQueryStream(r.seed, s.g, plainMix)
	batches := deltaStream(r.seed, s.g, int(r.window/churnInterval)+8, churnOps)
	bodies := make([][]byte, len(batches))
	for i, d := range batches {
		bodies[i] = deltaBody(d)
	}
	r.line("workload churn: %s x%g (%d vertices), IC explicit weights, eps=%g, kMax=%d; 1 closed-loop reader, writer %d-op batches every %v",
		datasetName, datasetScale, s.g.NumVertices(), churnEps, churnKMax, churnOps, churnInterval)

	if r.tr != nil {
		return traceChurn(r, s, reads, batches, bodies)
	}

	xs, ws, elapsed, err := churnLoad(s, nil, "", reads, bodies, 0, r.window)
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	results, _, err := r.replayServer(s, r.seed, batches, xs, ws)
	if err != nil {
		return err
	}

	var dl, late []float64
	for i := range ws {
		if ws[i].Err == nil && ws[i].Status == http.StatusOK {
			dl = append(dl, millis(ws[i].Latency()))
		}
		late = append(late, millis(ws[i].Sent.Sub(ws[i].Due)))
	}
	lat := latenciesMS(xs)
	r.setEndToEnd(setups, dl, perSecond(len(lat), elapsed), rss)
	r.servingReport(setups, builds, lat, elapsed, dl, rss)
	r.line("writer: %d batches in %d repair passes, send lateness p50 %.3f ms max %.3f ms",
		len(ws), len(results), median(late), quantile(late, 1))
	return nil
}

// traceChurn: alternating untraced and traced quarters of the window,
// then the traced in-process replay and selection timings.
func traceChurn(r *run, s *churnServer, reads *queryStream, batches []graph.Delta, bodies [][]byte) error {
	var (
		xs, xb []exchange
		ws     []write
		la, lb []float64
		err    error
	)
	r.alternate(func(tag string, on bool, d time.Duration) {
		if err != nil {
			return
		}
		var x []exchange
		var w []write
		x, w, _, err = churnLoad(s, r.tr, tag, reads, bodies, len(ws), d)
		xs, ws = append(xs, x...), append(ws, w...)
		for i := range w {
			if on {
				lb = append(lb, millis(w[i].Latency()))
			} else {
				la = append(la, millis(w[i].Latency()))
			}
		}
		if on {
			xb = append(xb, x...)
		}
	})
	if err != nil {
		return err
	}
	r.overhead("delta", la, lb)

	results, times, err := r.replayServer(s, r.seed, batches, xs, ws)
	if err != nil {
		return err
	}

	var cands, repaired int64
	ms := make([]float64, len(times))
	for i, br := range results {
		cands += int64(br.Candidates)
		repaired += br.SamplesInvalidated + br.SamplesExtended
		ms[i] = millis(times[i])
	}
	np := float64(max(len(results), 1))
	r.set("delta.apply_ms", median(ms))
	r.set("delta.candidates", float64(cands)/np)
	r.set("delta.repaired", float64(repaired)/np)
	if cands > 0 {
		r.set("delta.repair_yield", float64(repaired)/float64(cands))
	}
	r.set("delta.coalesced", float64(len(ws))/np)
	r.line("replay: %d passes, apply p50 %.3f ms, %.1f candidates and %.1f repaired per pass",
		len(results), median(ms), float64(cands)/np, float64(repaired)/np)

	sk := s.srv.ServingSketch()
	workers := runtime.GOMAXPROCS(0)
	ref := r.inprocReferee(sk, workers)
	for i := range xb {
		if _, err := ref.expect(xb[i].Req); err != nil {
			return err
		}
	}
	r.selectMetrics(reads.Dealt(), ref)
	c := newClient(1)
	defer closeClient(c)
	r.serverMetrics(c, s.l.URL, s.h, xb, ref)
	r.reportLayerSums(LayerSums(r.tr.Spans(), clientTracks(1, "writer")...))
	return nil
}
