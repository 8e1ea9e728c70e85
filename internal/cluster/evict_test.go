package cluster_test

import (
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

// crowd opens 65 sessions on sh — one more than a shard keeps — so every
// session opened before them is evicted. The ids sit far above the
// router's, which count up from 1.
func crowd(sh *cluster.Shard) {
	for id := uint64(0); id < 65; id++ {
		sh.Start(1<<40 + id)
	}
}

// TestRouterEvictionIsNotFailure pins that load never looks like failure:
// mid-query, every shard of a width-3 fleet evicts the router's session.
// The shards answer the next purge with an in-band unknown-session error;
// the router must restart on the same shards, not fail them over, and
// answer non-degraded and byte-identical to the single-process sketch.
func TestRouterEvictionIsNotFailure(t *testing.T) {
	g := testGraph(29, 90, 600)
	opt := cluster.BuildOptions{K: 8, Epsilon: 0.5, Model: diffuse.IC, Seed: 13, Workers: 2, Shards: 3}
	const k = 5
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	fleet := startCommFleet(t, shards, nil, 2*time.Second)
	rt, err := cluster.NewRouter(fleet.conns, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []imm.Query{{K: k}, {K: k, Budget: 4}} {
		want := refQuery(t, g, opt, q)
		var streamed []graph.Vertex
		res, err := rt.SelectQuery(q, func(i int, v graph.Vertex, gain int64) {
			streamed = append(streamed, v)
			if i == 1 {
				for _, sh := range shards {
					crowd(sh)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || len(res.FailedShards) != 0 || len(rt.FailedShards()) != 0 {
			t.Fatalf("q=%+v: evicted sessions failed shards over: degraded=%v failed=%v router=%v",
				q, res.Degraded, res.FailedShards, rt.FailedShards())
		}
		if !slices.Equal(res.Seeds, want.Seeds) || !slices.Equal(res.Gains, want.Gains) ||
			res.SpentBudget != want.SpentBudget || res.Eligible != want.Eligible {
			t.Fatalf("q=%+v: routed %v gains %v != single-process %v gains %v",
				q, res.Seeds, res.Gains, want.Seeds, want.Gains)
		}
		if cov := float64(want.Covered) / float64(res.Theta); res.CoverageFraction != cov {
			t.Fatalf("q=%+v: coverage %v != %v", q, res.CoverageFraction, cov)
		}
		if !slices.Equal(streamed, res.Seeds) {
			t.Fatalf("q=%+v: onSeed saw %v, want each seed once: %v", q, streamed, res.Seeds)
		}
	}
}

// crowdingConn crowds its shard before every purge, so the router's
// session is always gone by the time the purge arrives.
type crowdingConn struct {
	cluster.Conn
	sh *cluster.Shard
}

func (c crowdingConn) Purge(session uint64, v graph.Vertex) ([]cluster.DecPair, error) {
	crowd(c.sh)
	return c.Conn.Purge(session, v)
}

// TestRouterServerEvictionBackoff: a query whose sessions are evicted on
// every round gives up after a bounded number of restarts, and the HTTP
// front answers 503 with Retry-After — without failing a shard.
func TestRouterServerEvictionBackoff(t *testing.T) {
	g := testGraph(31, 70, 450)
	opt := cluster.BuildOptions{K: 6, Epsilon: 0.5, Model: diffuse.IC, Seed: 5, Workers: 2, Shards: 3}
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	fleet := startCommFleet(t, shards, nil, 2*time.Second)
	conns := make([]cluster.Conn, len(fleet.conns))
	for i, c := range fleet.conns {
		conns[i] = crowdingConn{c, shards[i]}
	}
	rt, err := cluster.NewRouter(conns, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cluster.NewRouterServer(rt, cluster.RouterServerConfig{}).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if failed := rt.FailedShards(); len(failed) != 0 {
		t.Fatalf("eviction failed shards %v", failed)
	}
}
