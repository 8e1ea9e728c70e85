package cluster_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/metrics"
)

// countingConn counts the purge rounds and session ends that reach one
// shard; with park set, every session start also waits on entered/release
// like blockingConn.
type countingConn struct {
	cluster.Conn
	purges, ends *atomic.Int64
	park         bool
	entered      chan struct{}
	release      chan struct{}
}

func (c countingConn) Start(session uint64) ([]int64, error) {
	if c.park {
		c.entered <- struct{}{}
		<-c.release
	}
	return c.Conn.Start(session)
}

func (c countingConn) Purge(session uint64, v graph.Vertex) ([]cluster.DecPair, error) {
	c.purges.Add(1)
	return c.Conn.Purge(session, v)
}

func (c countingConn) End(session uint64) error {
	c.ends.Add(1)
	return c.Conn.End(session)
}

// TestRouterServerStopsAbandonedQuery: a routed query whose client goes
// away while the query is parked on a shard sends no purge round to any
// shard once released, ends its sessions, frees its pool slot and counts
// as a timeout. Without the request context the k=5 query would run all
// five purge rounds for nobody.
func TestRouterServerStopsAbandonedQuery(t *testing.T) {
	g := testGraph(47, 60, 380)
	opt := cluster.BuildOptions{K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 13, Workers: 2, Shards: 2}
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	fleet := startCommFleet(t, shards, nil, 2*time.Second)
	var purges, ends atomic.Int64
	entered, release := make(chan struct{}, 8), make(chan struct{})
	conns := make([]cluster.Conn, len(fleet.conns))
	for i, c := range fleet.conns {
		conns[i] = countingConn{Conn: c, purges: &purges, ends: &ends, park: i == 0, entered: entered, release: release}
	}
	reg := metrics.NewRegistry()
	rt, err := cluster.NewRouter(conns, reg)
	if err != nil {
		t.Fatal(err)
	}
	rs := cluster.NewRouterServer(rt, cluster.RouterServerConfig{MaxConcurrent: 1, MaxQueue: 1})
	reqCtx := make(chan context.Context, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/seeds" {
			reqCtx <- r.Context()
		}
		rs.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/seeds", strings.NewReader(`{"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		answered <- err
	}()
	serverCtx := <-reqCtx
	<-entered // the query is parked on shard 0's session start
	cancel()
	if err := <-answered; err == nil {
		t.Fatal("the abandoned request got an answer")
	}
	select {
	case <-serverCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the server never saw the client go")
	}
	close(release)

	deadline := time.Now().Add(5 * time.Second)
	for rs.Admitted() != 0 || reg.Counter("router/timeouts").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("admitted = %d, router/timeouts = %d; want 0 and 1",
				rs.Admitted(), reg.Counter("router/timeouts").Value())
		}
		time.Sleep(time.Millisecond)
	}
	if n := purges.Load(); n != 0 {
		t.Fatalf("%d purge rounds reached the shards after the client left, want 0", n)
	}
	if n := ends.Load(); n != int64(len(conns)) {
		t.Fatalf("%d session ends, want one per shard (%d)", n, len(conns))
	}

	// The slot is free: the next query runs to completion.
	resp, err := http.Post(srv.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next query answered %d, want 200", resp.StatusCode)
	}
	if n := purges.Load(); n == 0 {
		t.Fatal("the next query sent no purge rounds")
	}
}
