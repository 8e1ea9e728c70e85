package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/server"
)

// TestTimedConnKeepsRoutedAnswersIdentical routes the same queries through
// plain shard connections and through timedConn-wrapped ones, over HTTP
// at both hops, and requires byte-identical replies.
func TestTimedConnKeepsRoutedAnswersIdentical(t *testing.T) {
	g := testGraph(t)
	opt := cluster.BuildOptions{K: 10, Epsilon: 0.5, Model: diffuse.IC, Seed: 42, Workers: 2, Shards: 3}
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	var plain, timed []cluster.Conn
	for i, sh := range shards {
		srv, err := server.New(server.Config{Graph: g, Model: opt.Model, Epsilon: opt.Epsilon,
			KMax: opt.K, Seed: opt.Seed, ClusterShard: sh})
		if err != nil {
			t.Fatal(err)
		}
		l, err := listen(newCountingHandler(srv.Handler(), "shard.handler", "s", nil))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		plain = append(plain, cluster.NewHTTPConn(l.URL, i, 10*time.Second))
		timed = append(timed, newTimedConn(cluster.NewHTTPConn(l.URL, i, 10*time.Second), i, tr))
	}
	front := func(conns []cluster.Conn) *listener {
		rt, err := cluster.NewRouter(conns, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, err := listen(cluster.NewRouterServer(rt, cluster.RouterServerConfig{}).Handler())
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	lp, lt := front(plain), front(timed)
	defer lp.Close()
	defer lt.Close()

	c := newClient(1)
	defer closeClient(c)
	spec := routedMix
	spec.KMax = opt.K
	for _, rq := range queryMix(1, g, spec, 40) {
		var replies [2][]byte
		for i, l := range []*listener{lp, lt} {
			st, body, _, err := post(c, nil, l.URL+rq.Path, rq.Body, "client.q", "", 1)
			if err != nil || st != http.StatusOK {
				t.Fatalf("%s: status %d, %v: %s", rq.Body, st, err, body)
			}
			replies[i] = body
		}
		if !bytes.Equal(replies[0], replies[1]) {
			t.Fatalf("%s: plain conns replied %s, timed conns %s", rq.Body, replies[0], replies[1])
		}
	}
	ops := map[string]int{}
	for _, s := range tr.Spans() {
		ops[s.Name]++
	}
	if ops["cluster.start"] == 0 || ops["cluster.purge"] == 0 || ops["cluster.end"] == 0 {
		t.Fatalf("timed conns recorded %v", ops)
	}
	if sessionsMax(tr.Spans()) != 1 {
		t.Fatalf("one sequential client held %d sessions at once", sessionsMax(tr.Spans()))
	}
}

// TestCountingHandlerCountsAndParents checks the byte counts and that the
// handler's span is parented to the client span named in the header.
func TestCountingHandlerCountsAndParents(t *testing.T) {
	tr := NewTracer()
	h := newCountingHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Write(bytes.Repeat(b, 3))
	}), "server.handler", "server", tr)
	l, err := listen(h)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := newClient(1)
	defer closeClient(c)
	body := []byte(strings.Repeat("x", 1000))
	st, out, _, err := post(c, tr, l.URL, body, "client.q", "client0", 9)
	if err != nil || st != http.StatusOK || len(out) != 3000 {
		t.Fatalf("status %d, %d bytes, %v", st, len(out), err)
	}
	if h.Requests.Load() != 1 || h.BytesIn.Load() != 1000 || h.BytesOut.Load() != 3000 {
		t.Fatalf("counted %d requests, %d in, %d out", h.Requests.Load(), h.BytesIn.Load(), h.BytesOut.Load())
	}
	spans := tr.Spans()
	var client, handler Span
	for _, s := range spans {
		switch s.Name {
		case "client.q":
			client = s
		case "server.handler":
			handler = s
		}
	}
	if handler.Parent != client.ID || handler.Req != 9 || handler.Start < client.Start || handler.End > client.End {
		t.Fatalf("handler span %+v not nested in client span %+v", handler, client)
	}
}

// TestLinkFanOutParentsFleetSpans drives a traced fleet with two
// concurrent clients, as the routed workload does, and requires every
// shard call to land under a router handler span that contains it, each
// handler to get at most one session, and every shard handler span to land
// under a call on its own shard that was in flight when it started.
func TestLinkFanOutParentsFleetSpans(t *testing.T) {
	g := testGraph(t)
	opt := cluster.BuildOptions{K: 10, Epsilon: 0.5, Model: diffuse.IC, Seed: 42, Workers: 2, Shards: routedWidth}
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	var conns []cluster.Conn
	for i, sh := range shards {
		srv, err := server.New(server.Config{Graph: g, Model: opt.Model, Epsilon: opt.Epsilon,
			KMax: opt.K, Seed: opt.Seed, ClusterShard: sh})
		if err != nil {
			t.Fatal(err)
		}
		l, err := listen(newCountingHandler(srv.Handler(), "shard.handler", "shardsrv"+strconv.Itoa(i), tr))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		conns = append(conns, newTimedConn(cluster.NewHTTPConn(l.URL, i, 10*time.Second), i, tr))
	}
	rt, err := cluster.NewRouter(conns, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := listen(newCountingHandler(cluster.NewRouterServer(rt, cluster.RouterServerConfig{}).Handler(), "router.handler", "router", tr))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := newClient(2)
	defer closeClient(c)
	spec := routedMix
	spec.KMax = opt.K
	xs := closedLoop(c, tr, "", l.URL, newQueryStream(3, g, spec), 2, 300*time.Millisecond)
	for _, x := range xs {
		if x.Failed() {
			t.Fatalf("request %d: status %d, %v", x.ReqID, x.Status, x.Err)
		}
	}

	spans := linkFanOut(tr.Spans())
	byID := map[int64]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	inside := func(s Span, whole bool) Span {
		p, ok := byID[s.Parent]
		if !ok || s.Start < p.Start || s.Start > p.End || (whole && s.End > p.End) {
			t.Fatalf("span %+v is not inside a parent (%+v)", s, p)
		}
		return p
	}
	sessionOf := map[int64]int64{}
	for _, s := range spans {
		switch {
		case s.Layer() == "cluster" && s.Req != 0:
			p := inside(s, true)
			if p.Name != "router.handler" {
				t.Fatalf("shard call %+v under %+v", s, p)
			}
			if prev, ok := sessionOf[p.ID]; ok && prev != s.Req {
				t.Fatalf("router handler %d got sessions %d and %d", p.ID, prev, s.Req)
			}
			sessionOf[p.ID] = s.Req
		case s.Name == "shard.handler" && byID[s.Parent].Name != "":
			if p := inside(s, false); p.Layer() != "cluster" || "shard"+s.Track[len("shardsrv"):] != p.Track {
				t.Fatalf("shard handler %+v under %+v", s, p)
			}
		case s.Name == "shard.handler" && s.Track != "":
			t.Fatalf("shard handler span %+v left unmatched", s)
		}
	}
	if len(sessionOf) < len(xs) {
		t.Fatalf("%d of %d router requests got a session", len(sessionOf), len(xs))
	}
}
