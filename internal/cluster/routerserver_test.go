package cluster_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/metrics"
)

// TestRouterServerRejectsOverrides: the fleet serves one sketch
// configuration, so a /v1/seeds or /v1/spread body naming a model,
// epsilon or seed is answered 400 — not silently served from the fleet's
// own configuration.
func TestRouterServerRejectsOverrides(t *testing.T) {
	g := testGraph(41, 60, 380)
	opt := cluster.BuildOptions{K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 9, Workers: 2, Shards: 2}
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	fleet := startCommFleet(t, shards, nil, 2*time.Second)
	rt, err := cluster.NewRouter(fleet.conns, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cluster.NewRouterServer(rt, cluster.RouterServerConfig{}).Handler())
	defer srv.Close()
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/seeds", `{"k":5}`, http.StatusOK},
		{"/v1/seeds", `{"k":5,"model":"LT"}`, http.StatusBadRequest},
		{"/v1/seeds", `{"k":5,"model":"IC"}`, http.StatusBadRequest},
		{"/v1/seeds", `{"k":5,"epsilon":0.3}`, http.StatusBadRequest},
		{"/v1/seeds", `{"k":5,"seed":1}`, http.StatusBadRequest},
		{"/v1/spread", `{"seeds":[0,1]}`, http.StatusOK},
		{"/v1/spread", `{"seeds":[0,1],"model":"LT"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s %s: status %d, want %d", c.path, c.body, resp.StatusCode, c.want)
		}
		if c.want == http.StatusBadRequest && (err != nil || !strings.Contains(e.Error, "overrides are not available")) {
			t.Fatalf("%s %s: error %q (%v), want the override refusal", c.path, c.body, e.Error, err)
		}
	}
}

// blockingConn parks every session start on its shard until release is
// closed, reporting each arrival on entered.
type blockingConn struct {
	cluster.Conn
	entered chan struct{}
	release chan struct{}
}

func (c blockingConn) Start(session uint64) ([]int64, error) {
	c.entered <- struct{}{}
	<-c.release
	return c.Conn.Start(session)
}

// TestRouterServerSaturation: with one query running (parked on a shard)
// and one waiting, the next is answered 429 + Retry-After at once and
// counted in router/rejected; the parked queries then complete.
func TestRouterServerSaturation(t *testing.T) {
	g := testGraph(43, 60, 380)
	opt := cluster.BuildOptions{K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 11, Workers: 2, Shards: 2}
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	fleet := startCommFleet(t, shards, nil, 2*time.Second)
	entered, release := make(chan struct{}, 4), make(chan struct{})
	conns := append([]cluster.Conn{}, fleet.conns...)
	conns[0] = blockingConn{fleet.conns[0], entered, release}
	reg := metrics.NewRegistry()
	rt, err := cluster.NewRouter(conns, reg)
	if err != nil {
		t.Fatal(err)
	}
	rs := cluster.NewRouterServer(rt, cluster.RouterServerConfig{MaxConcurrent: 1, MaxQueue: 1})
	srv := httptest.NewServer(rs.Handler())
	defer srv.Close()

	post := func() (int, http.Header) {
		resp, err := http.Post(srv.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":3}`))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}
	codes := make(chan int, 2)
	go func() { c, _ := post(); codes <- c }()
	<-entered // running, parked on shard 0
	go func() { c, _ := post(); codes <- c }()
	deadline := time.Now().Add(5 * time.Second)
	for rs.Admitted() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("admitted = %d, want 2", rs.Admitted())
		}
		time.Sleep(time.Millisecond)
	}

	status, hdr := post()
	if status != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("saturated query: status %d, Retry-After %q; want 429 with Retry-After", status, hdr.Get("Retry-After"))
	}
	if got := reg.Counter("router/rejected").Value(); got != 1 {
		t.Fatalf("router/rejected = %d, want 1", got)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("parked query %d answered %d, want 200", i, c)
		}
	}
}
