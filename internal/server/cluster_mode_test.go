package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
)

// TestShardModeFleetMatchesSingleProcess is the HTTP half of the cluster
// acceptance gate: three immserve replicas in shard mode behind a router
// over real HTTP must serve seeds byte-identical to one single-process
// server at the same (graph, model, eps, k, seed).
func TestShardModeFleetMatchesSingleProcess(t *testing.T) {
	g := testGraph(13, 150, 1000)
	opt := cluster.BuildOptions{
		K: 10, Epsilon: 0.5, Model: diffuse.IC, Seed: 42, Workers: 4, Shards: 3,
	}
	const k = 8

	// Single-process reference at the fleet configuration.
	_, coded, idx, err := imm.RunSketch(g, imm.Options{
		K: opt.K, Epsilon: opt.Epsilon, Model: opt.Model, Seed: opt.Seed, Workers: opt.Workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSeeds, _ := imm.SelectSeedsSketch(coded, idx, k, opt.Workers)

	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]cluster.Conn, len(shards))
	for i, sh := range shards {
		cfg := testConfig(g)
		cfg.ClusterShard = sh
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		conns[i] = cluster.NewHTTPConn(ts.URL, i, 5*time.Second)

		// A shard replica must not answer seed queries itself — its slice
		// of the samples would give silently wrong seeds.
		resp, err := ts.Client().Post(ts.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":3}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("shard %d answered /v1/seeds with %d, want 400", i, resp.StatusCode)
		}

		// The identity endpoint serves the shard's coordinates.
		ir, err := ts.Client().Get(ts.URL + "/v1/shard/info")
		if err != nil {
			t.Fatal(err)
		}
		var info struct {
			ShardIdx   int `json:"shardIdx"`
			ShardCount int `json:"shardCount"`
		}
		if err := json.NewDecoder(ir.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		ir.Body.Close()
		if info.ShardIdx != i || info.ShardCount != 3 {
			t.Fatalf("shard %d reports identity %+v", i, info)
		}
	}

	rt, err := cluster.NewRouter(conns, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Select(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Seeds, wantSeeds) {
		t.Fatalf("fleet seeds %v != single-process %v", res.Seeds, wantSeeds)
	}
	if res.Degraded {
		t.Fatalf("healthy HTTP fleet reported degraded: %v", res.FailedShards)
	}
}

// TestShardModeRejectsDynamic pins the mode exclusion: a shard serves a
// static sample slice, so dynamic mutation must be refused at startup.
func TestShardModeRejectsDynamic(t *testing.T) {
	g := testGraph(13, 60, 350)
	shards, err := cluster.BuildShards(g, cluster.BuildOptions{
		K: 4, Epsilon: 0.5, Model: diffuse.IC, Seed: 42, Workers: 2, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := dynConfig(g)
	cfg.ClusterShard = shards[0]
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("shard+dynamic config accepted: %v", err)
	}

	// And a digest mismatch (shard built from a different graph) is refused.
	other := testGraph(99, 60, 350)
	cfg2 := testConfig(other)
	cfg2.ClusterShard = shards[0]
	if _, err := New(cfg2); err == nil || !strings.Contains(err.Error(), "graph") {
		t.Fatalf("mismatched shard digest accepted: %v", err)
	}
}

// TestDeltaCoalescing holds the mutation lock while three clients queue
// delta batches, then releases it: the winner must fold all three into ONE
// repair pass — one epoch bump, one publish — and every client sees the
// merged verdict with Coalesced = 3.
func TestDeltaCoalescing(t *testing.T) {
	g := testGraph(7, 120, 800)
	s, err := New(dynConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	epoch0 := s.ServingSketch().DeltaEpoch
	ops := absentEdges(t, g, 3)

	// Park the repair path so the three batches pile up in the queue.
	s.dynMu.Lock()
	type verdict struct {
		status int
		resp   deltaResponse
	}
	done := make(chan verdict, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			status, dr, _ := postDelta(t, ts.Client(), ts.URL,
				opsJSON(graph.Delta{ops[i]}))
			done <- verdict{status, dr}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.deltaMu.Lock()
		n := len(s.deltaPending)
		s.deltaMu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			s.dynMu.Unlock()
			t.Fatalf("only %d/3 deltas queued", n)
		}
		time.Sleep(time.Millisecond)
	}
	s.dynMu.Unlock()

	for i := 0; i < 3; i++ {
		v := <-done
		if v.status != http.StatusOK {
			t.Fatalf("coalesced delta got status %d", v.status)
		}
		if v.resp.Coalesced != 3 {
			t.Fatalf("response coalesced = %d, want 3", v.resp.Coalesced)
		}
		if v.resp.Applied != 3 {
			t.Fatalf("merged batch applied %d ops, want 3", v.resp.Applied)
		}
		if v.resp.Epoch != epoch0+1 {
			t.Fatalf("merged batch bumped epoch to %d, want %d (exactly one repair pass)",
				v.resp.Epoch, epoch0+1)
		}
	}
	if got := s.mCoalesced.Value(); got != 2 {
		t.Fatalf("server/delta-coalesced = %d, want 2", got)
	}
	// All three inserts landed despite the single pass.
	for _, op := range ops {
		if !hasEdge(s.dyn.Graph(), op.Src, op.Dst) {
			t.Fatalf("edge %d->%d missing after coalesced apply", op.Src, op.Dst)
		}
	}
}

// TestQueueDepthGauge: the server/queue-depth gauge tracks admitted
// work — parked queries raise it, completion returns it to zero, and it is
// visible through /v1/metrics.
func TestQueueDepthGauge(t *testing.T) {
	g := testGraph(7, 120, 800)
	cfg := testConfig(g)
	cfg.KMax = 20
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.testQueryHook = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 2)
	post := func() {
		status, _, _ := postSeeds(t, ts.Client(), ts.URL, `{"k":5}`)
		done <- status
	}
	go post()
	<-entered
	go post()
	for s.Admitted() != 2 {
		time.Sleep(time.Millisecond)
	}
	if got := s.reg.Gauge("server/queue-depth").Value(); got != 2 {
		t.Fatalf("queue-depth gauge = %d with 2 admitted, want 2", got)
	}

	// The gauge is on the wire, not just in memory.
	mr, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if snap.Gauges["server/queue-depth"] != 2 {
		t.Fatalf("/v1/metrics queue-depth = %d, want 2", snap.Gauges["server/queue-depth"])
	}

	close(release)
	for i := 0; i < 2; i++ {
		if st := <-done; st != http.StatusOK {
			t.Fatalf("parked query finished with %d", st)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.reg.Gauge("server/queue-depth").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue-depth gauge stuck at %d after drain", s.reg.Gauge("server/queue-depth").Value())
		}
		time.Sleep(time.Millisecond)
	}
}
