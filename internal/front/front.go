// Package front is the HTTP front end both seed-serving processes share:
// immserve (internal/server, one process holding the whole sketch) and
// immrouter (internal/cluster, the sample-partitioned fleet). It owns what
// the two fronts have in common — admission control, the JSON body
// decode, the JSON/error/backoff writers, the listener lifecycle with
// drain, GET /v1/metrics, and the /v1/seeds and /v1/spread request types
// (request.go) — so each front keeps only what differs between them.
// DESIGN.md §11 is the spec.
package front

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"influmax/internal/metrics"
)

// RetryAfter is the hint stamped on every 429 and backoff 503.
const RetryAfter = time.Second

// maxBody bounds a decoded request body.
const maxBody = 1 << 20

// Front is one HTTP front: a mux with GET /v1/metrics mounted, the
// admission gate, and the listener. The embedding server mounts its own
// routes with HandleFunc and runs each query through Admit.
type Front struct {
	mux     *http.ServeMux
	reg     *metrics.Registry
	httpSrv *http.Server

	// Admission: admitted counts running + waiting queries (bounded by
	// maxConcurrent + maxQueue); running is the worker pool.
	maxConcurrent, maxQueue int
	timeout                 time.Duration
	admitted                atomic.Int64
	running                 chan struct{}
	draining                atomic.Bool

	mRejected, mTimeouts, mErrors *metrics.Counter
	mQueueDepth, mInflight        *metrics.Gauge
}

// New returns a front whose pool runs maxConcurrent queries with up to
// maxQueue more waiting. timeout bounds one query's wait for a pool slot
// and rides on the context Admit returns (0: only the client bounds it).
// The gate's instruments are registered in reg as <prefix>/rejected,
// /timeouts, /errors, /queue-depth and /inflight.
func New(reg *metrics.Registry, prefix string, maxConcurrent, maxQueue int, timeout time.Duration) *Front {
	f := &Front{
		mux:           http.NewServeMux(),
		reg:           reg,
		maxConcurrent: maxConcurrent,
		maxQueue:      maxQueue,
		timeout:       timeout,
		running:       make(chan struct{}, maxConcurrent),
		mRejected:     reg.Counter(prefix + "/rejected"),
		mTimeouts:     reg.Counter(prefix + "/timeouts"),
		mErrors:       reg.Counter(prefix + "/errors"),
		mQueueDepth:   reg.Gauge(prefix + "/queue-depth"),
		mInflight:     reg.Gauge(prefix + "/inflight"),
	}
	f.mux.HandleFunc("GET /v1/metrics", f.handleMetrics)
	return f
}

// HandleFunc mounts a route on the front's mux.
func (f *Front) HandleFunc(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// Handler returns the front's HTTP handler (for mounting under httptest
// or an external mux/listener).
func (f *Front) Handler() http.Handler { return f.mux }

// Start listens on addr and serves until Shutdown; it returns the bound
// address (useful with ":0").
func (f *Front) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	f.httpSrv = &http.Server{Handler: f.mux}
	go f.httpSrv.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown drains the front: Draining turns true (health checks report
// it, so load balancers stop routing), no new queries are admitted, and
// admitted ones run to completion bounded by ctx. After a Start, the
// listener closes too.
func (f *Front) Shutdown(ctx context.Context) error {
	f.draining.Store(true)
	if f.httpSrv != nil {
		return f.httpSrv.Shutdown(ctx)
	}
	// Handler-only mode (tests, embedding): wait for admitted queries.
	// Admit counts a query before it checks draining, so a query this
	// loop does not see has seen draining and will not run.
	for f.admitted.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Draining reports whether Shutdown has begun.
func (f *Front) Draining() bool { return f.draining.Load() }

// Admitted is the number of queries admitted (running or waiting for a
// pool slot) and not yet answered.
func (f *Front) Admitted() int64 { return f.admitted.Load() }

// Admit runs the admission sequence of one query. It counts the query as
// admitted, then refuses it while draining (503) or past maxConcurrent +
// maxQueue admitted queries (429). It decodes the JSON body into req and
// runs check (400 on either error), then waits for a pool slot, bounded
// by the front's timeout and the client (503). Refusals carry
// Retry-After. On success the query runs under ctx and the caller calls
// done once it has answered; otherwise the response is already written.
func (f *Front) Admit(w http.ResponseWriter, r *http.Request, req any, check func() error) (ctx context.Context, done func(), ok bool) {
	// The queue-depth gauge tracks admitted (running + waiting) queries,
	// so saturation shows in /v1/metrics before 429s start.
	adm := f.admitted.Add(1)
	leave := func() { f.mQueueDepth.Set(f.admitted.Add(-1)) }
	if f.draining.Load() {
		leave()
		WriteBackoff(w, http.StatusServiceUnavailable, "draining")
		return nil, nil, false
	}
	if limit := int64(f.maxConcurrent + f.maxQueue); adm > limit {
		leave()
		f.mRejected.Inc()
		WriteBackoff(w, http.StatusTooManyRequests,
			"saturated: %d queries admitted (limit %d running + %d queued)",
			limit, f.maxConcurrent, f.maxQueue)
		return nil, nil, false
	}
	f.mQueueDepth.Set(adm)
	if !f.Decode(w, r, req) {
		leave()
		return nil, nil, false
	}
	if err := check(); err != nil {
		leave()
		f.Error(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}

	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	if f.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
	}
	select {
	case f.running <- struct{}{}:
	case <-ctx.Done():
		cancel()
		leave()
		f.TimedOut(w, "queue wait exceeded: %v", ctx.Err())
		return nil, nil, false
	}
	f.mInflight.Add(1)
	return ctx, func() {
		f.mInflight.Add(-1)
		<-f.running
		cancel()
		leave()
	}, true
}

// Decode reads r's JSON body, at most 1 MiB, into v; on failure it
// answers 400 and returns false.
func (f *Front) Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		f.Error(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// ErrorResponse is the JSON error envelope of every non-200 answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Error answers status with the JSON error envelope; a 5xx also counts
// in <prefix>/errors.
func (f *Front) Error(w http.ResponseWriter, status int, format string, args ...any) {
	if status >= 500 {
		f.mErrors.Inc()
	}
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// WriteBackoff answers an overload condition — the client should retry
// later, not give up — with the error envelope and Retry-After.
func WriteBackoff(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int((RetryAfter+time.Second-1)/time.Second)))
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// TimedOut answers a query whose wait ran out with 503 + Retry-After and
// counts it in <prefix>/timeouts.
func (f *Front) TimedOut(w http.ResponseWriter, format string, args ...any) {
	f.mTimeouts.Inc()
	WriteBackoff(w, http.StatusServiceUnavailable, format, args...)
}

// handleMetrics exposes the registry snapshot as JSON.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := f.reg.Snapshot()
	if snap == nil {
		snap = &metrics.Snapshot{}
	}
	WriteJSON(w, http.StatusOK, snap)
}
