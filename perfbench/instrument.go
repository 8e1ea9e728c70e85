package main

import (
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"influmax/internal/cluster"
	"influmax/internal/graph"
)

// countingHandler wraps an http.Handler from outside: it counts request
// and response bytes and, when traced, records one span per request,
// parented to the client span named in the request's header.
type countingHandler struct {
	inner http.Handler
	name  string // span name, e.g. "server.handler"
	track string // track of spans with no client parent
	tr    *Tracer

	Requests atomic.Int64
	BytesIn  atomic.Int64
	BytesOut atomic.Int64
}

func newCountingHandler(inner http.Handler, name, track string, tr *Tracer) *countingHandler {
	return &countingHandler{inner: inner, name: name, track: track, tr: tr}
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	track := h.track
	if parent != 0 {
		track = ""
	}
	sp := h.tr.Start(h.name, track, parent, req)
	body := &countingReader{r: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	h.inner.ServeHTTP(cw, r)
	sp.End()
	h.Requests.Add(1)
	h.BytesIn.Add(body.n)
	h.BytesOut.Add(cw.n)
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// countingWriter counts body bytes and keeps the streaming interface of
// the writer it wraps.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timedConn decorates a cluster.Conn: every shard call is recorded as a
// span named "cluster.<op>" on the track "shard<slot>", with the router's
// session id as the request id. Answers pass through untouched.
type timedConn struct {
	inner cluster.Conn
	tr    *Tracer
	track string
}

func newTimedConn(inner cluster.Conn, slot int, tr *Tracer) *timedConn {
	return &timedConn{inner: inner, tr: tr, track: "shard" + strconv.Itoa(slot)}
}

func (c *timedConn) span(op string, session uint64) *Open {
	return c.tr.Start("cluster."+op, c.track, 0, int64(session))
}

func (c *timedConn) Info() (cluster.ShardInfo, error) {
	sp := c.span("info", 0)
	defer sp.End()
	return c.inner.Info()
}

func (c *timedConn) Start(session uint64) ([]int64, error) {
	sp := c.span("start", session)
	defer sp.End()
	return c.inner.Start(session)
}

func (c *timedConn) StartFiltered(session uint64, audience []graph.Vertex) ([]int64, int64, error) {
	sp := c.span("start", session)
	defer sp.End()
	return c.inner.StartFiltered(session, audience)
}

func (c *timedConn) Purge(session uint64, v graph.Vertex) ([]cluster.DecPair, error) {
	sp := c.span("purge", session)
	defer sp.End()
	return c.inner.Purge(session, v)
}

func (c *timedConn) Spread(seeds, audience []graph.Vertex) (int64, int64, error) {
	sp := c.span("spread", 0)
	defer sp.End()
	return c.inner.Spread(seeds, audience)
}

func (c *timedConn) End(session uint64) error {
	sp := c.span("end", session)
	defer sp.End()
	return c.inner.End(session)
}

func (c *timedConn) Close() error { return c.inner.Close() }
