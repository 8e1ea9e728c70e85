package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/graph"
)

// FuzzSeedsRequest fuzzes the extended /v1/seeds and /v1/spread JSON
// decoders end to end through both real fronts — the single-process
// server and the router over an in-process 2-shard fleet at the same
// configuration: any body — however malformed, hostile or oversized —
// must produce a well-formed response from each (200 with valid JSON, or
// 400 with a JSON error), never a panic, and never disturb the resident
// samples (a canonical plain query must answer byte-identical seeds, on
// both fronts, after every fuzzed request).
func FuzzSeedsRequest(f *testing.F) {
	f.Add(false, []byte(`{"k":1}`))
	f.Add(false, []byte(`{"k":3,"budget":2.5}`))
	f.Add(false, []byte(`{"k":3,"costs":[1,2],"budget":4}`))
	f.Add(false, []byte(`{"k":3,"audience":[0,3,6],"blocked":[1]}`))
	f.Add(false, []byte(`{"k":3,"budget":0,"audience":[],"blocked":[]}`))
	f.Add(false, []byte(`{"k":-1,"costs":"x"}`))
	f.Add(true, []byte(`{"seeds":[0,1,2]}`))
	f.Add(true, []byte(`{"seeds":[5],"audience":[0,2,4]}`))
	f.Add(true, []byte(`{"seeds":[],"audience":[4294967295]}`))
	f.Add(true, []byte(`{"seeds"`))
	f.Add(false, []byte(`{"k":2,"stream":true}`))
	f.Add(false, []byte(`{"k":2,"model":"LT","seed":7}`))

	g := testGraph(3, 40, 220)
	cfg := testConfig(g)
	cfg.KMax = 10
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Prewarm(context.Background()); err != nil {
		f.Fatal(err)
	}
	fronts := map[string]http.Handler{"server": s.Handler(), "router": fuzzRouter(f, cfg)}
	canonical := func(h http.Handler) []graph.Vertex {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/seeds", bytes.NewReader([]byte(`{"k":2}`))))
		var sr struct {
			Seeds []graph.Vertex `json:"seeds"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sr) != nil {
			return nil
		}
		return sr.Seeds
	}
	wantSeeds := canonical(fronts["server"])
	if wantSeeds == nil {
		f.Fatal("canonical query failed at setup")
	}
	if got := canonical(fronts["router"]); !slices.Equal(got, wantSeeds) {
		f.Fatalf("router canonical seeds %v != single-process %v", got, wantSeeds)
	}

	f.Fuzz(func(t *testing.T, spread bool, body []byte) {
		path := "/v1/seeds"
		if spread {
			path = "/v1/spread"
		}
		for name, h := range fronts {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
				// The router may stream NDJSON: every line is one document.
				for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
					if !json.Valid(line) {
						t.Fatalf("%s %s: 200 with invalid JSON: %q", name, path, rec.Body.Bytes())
					}
				}
			case http.StatusBadRequest:
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("%s %s: 400 without a JSON error: %q", name, path, rec.Body.Bytes())
				}
			default:
				t.Fatalf("%s %s: status %d for body %q, want 200 or 400", name, path, rec.Code, body)
			}
			if got := canonical(h); !slices.Equal(got, wantSeeds) {
				t.Fatalf("%s: samples disturbed: canonical seeds %v != %v after body %q", name, got, wantSeeds, body)
			}
		}
	})
}

// fuzzRouter serves cfg's sketch configuration from a 2-shard fleet of
// shard-mode servers over real HTTP, and returns the router's front.
func fuzzRouter(f *testing.F, cfg Config) http.Handler {
	shards, err := cluster.BuildShards(cfg.Graph, cluster.BuildOptions{
		K: cfg.KMax, Epsilon: cfg.Epsilon, Model: cfg.Model, Seed: cfg.Seed, Workers: cfg.Workers, Shards: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	conns := make([]cluster.Conn, len(shards))
	for i, sh := range shards {
		shardCfg := cfg
		shardCfg.ClusterShard = sh
		s, err := New(shardCfg)
		if err != nil {
			f.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		f.Cleanup(ts.Close)
		conns[i] = cluster.NewHTTPConn(ts.URL, i, 5*time.Second)
	}
	rt, err := cluster.NewRouter(conns, nil)
	if err != nil {
		f.Fatal(err)
	}
	return cluster.NewRouterServer(rt, cluster.RouterServerConfig{}).Handler()
}
