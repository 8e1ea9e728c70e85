package cluster_test

import (
	"encoding/json"
	"errors"
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

// TestRouterServerEmptyCosts: an explicitly empty cost vector is no cost
// vector — the plain answer without a budget, unit costs with one — and
// never reaches the budgeted argmax as a zero-length slice.
func TestRouterServerEmptyCosts(t *testing.T) {
	g := testGraph(37, 70, 450)
	opt := cluster.BuildOptions{K: 6, Epsilon: 0.5, Model: diffuse.IC, Seed: 3, Workers: 2, Shards: 3}
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
		body string
		want imm.Query
	}{
		{`{"k":3,"costs":[]}`, imm.Query{K: 3}},
		{`{"k":3,"costs":[],"budget":2}`, imm.Query{K: 3, Budget: 2}},
	} {
		want := refQuery(t, g, opt, c.want)
		resp, err := http.Post(srv.URL+"/v1/seeds", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Seeds []graph.Vertex `json:"seeds"`
			Gains []int64        `json:"gains"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, decode %v", c.body, resp.StatusCode, err)
		}
		if !slices.Equal(got.Seeds, want.Seeds) || !slices.Equal(got.Gains, want.Gains) {
			t.Fatalf("%s: seeds %v gains %v, want %v gains %v", c.body, got.Seeds, got.Gains, want.Seeds, want.Gains)
		}
	}
}

// garbledConn answers with a malformed reply — what a shard of another
// protocol version or a corrupted stream sends — on its first Start when
// start is set, and from the given purge call (1-based) on otherwise.
type garbledConn struct {
	cluster.Conn
	start     bool
	fromPurge int
	purges    int
}

var errGarbled = errors.New("cluster: truncated decrement response")

func (c *garbledConn) Start(session uint64) ([]int64, error) {
	if c.start {
		c.start = false
		return nil, errGarbled
	}
	return c.Conn.Start(session)
}

func (c *garbledConn) Purge(session uint64, v graph.Vertex) ([]cluster.DecPair, error) {
	if c.purges++; c.fromPurge > 0 && c.purges >= c.fromPurge {
		return nil, errGarbled
	}
	return c.Conn.Purge(session, v)
}

// TestRouterMalformedReplyFailsOver: a shard whose reply does not decode
// is failed over like a dead one — at session start and mid-query — and
// the query still answers, degraded, instead of aborting the fleet.
func TestRouterMalformedReplyFailsOver(t *testing.T) {
	g := testGraph(43, 80, 520)
	opt := cluster.BuildOptions{K: 6, Epsilon: 0.5, Model: diffuse.IC, Seed: 11, Workers: 2, Shards: 3}
	const k = 4
	want := refQuery(t, g, opt, imm.Query{K: k})
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*garbledConn{{start: true}, {fromPurge: 2}} {
		at := "mid-query"
		if bad.start {
			at = "start"
		}
		fleet := startCommFleet(t, shards, nil, 2*time.Second)
		conns := slices.Clone(fleet.conns)
		bad.Conn = conns[1]
		conns[1] = bad
		rt, err := cluster.NewRouter(conns, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Select(k, nil)
		if err != nil {
			t.Fatalf("%s: malformed reply aborted the query: %v", at, err)
		}
		if !res.Degraded || !slices.Equal(res.FailedShards, []int{1}) || res.TotalSamples >= res.Theta {
			t.Fatalf("%s: degraded=%v failed=%v samples %d of %d, want shard 1 failed over",
				at, res.Degraded, res.FailedShards, res.TotalSamples, res.Theta)
		}
		if bad.fromPurge > 0 && res.Seeds[0] != want.Seeds[0] {
			t.Fatalf("pre-failure seed %d, want %d", res.Seeds[0], want.Seeds[0])
		}
	}
}
