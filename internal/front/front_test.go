package front

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"influmax/internal/metrics"
)

// parkedFront mounts POST /q on a front whose admitted queries block until
// release is closed; entered receives one value per query that got a
// pool slot.
func parkedFront(maxConcurrent, maxQueue int, timeout time.Duration) (f *Front, reg *metrics.Registry, entered chan struct{}, release chan struct{}) {
	reg = metrics.NewRegistry()
	f = New(reg, "test", maxConcurrent, maxQueue, timeout)
	entered = make(chan struct{}, 16)
	release = make(chan struct{})
	f.HandleFunc("POST /q", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			K int `json:"k"`
		}
		_, done, ok := f.Admit(w, r, &req, func() error { return nil })
		if !ok {
			return
		}
		defer done()
		entered <- struct{}{}
		<-release
		WriteJSON(w, http.StatusOK, req)
	})
	return f, reg, entered, release
}

func post(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/q", strings.NewReader(body)))
	return rec
}

// wantError checks status, the JSON error envelope and whether the
// response carries Retry-After.
func wantError(t *testing.T, rec *httptest.ResponseRecorder, status int, retry bool) {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status %d, want %d (body %q)", rec.Code, status, rec.Body.String())
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("no JSON error envelope: %q", rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After") != ""; got != retry {
		t.Fatalf("Retry-After present = %v, want %v", got, retry)
	}
}

// waitAdmitted polls until n queries are admitted.
func waitAdmitted(t *testing.T, f *Front, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.Admitted() != n {
		if time.Now().After(deadline) {
			t.Fatalf("admitted = %d, want %d", f.Admitted(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmitRejectsPastLimit: with the pool and the queue full, the next
// query is answered 429 + Retry-After at once, and counted.
func TestAdmitRejectsPastLimit(t *testing.T) {
	f, reg, entered, release := parkedFront(1, 1, 0)
	h := f.Handler()
	codes := make(chan int, 2)
	go func() { codes <- post(t, h, `{"k":1}`).Code }()
	<-entered
	go func() { codes <- post(t, h, `{"k":2}`).Code }()
	waitAdmitted(t, f, 2)
	if got := reg.Gauge("test/queue-depth").Value(); got != 2 {
		t.Fatalf("queue-depth = %d with 2 admitted, want 2", got)
	}
	if got := reg.Gauge("test/inflight").Value(); got != 1 {
		t.Fatalf("inflight = %d with 1 running, want 1", got)
	}

	wantError(t, post(t, h, `{"k":3}`), http.StatusTooManyRequests, true)
	if got := reg.Counter("test/rejected").Value(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("parked query answered %d, want 200", c)
		}
	}
	waitAdmitted(t, f, 0)
	if got := reg.Gauge("test/queue-depth").Value(); got != 0 {
		t.Fatalf("queue-depth = %d after drain, want 0", got)
	}
}

// TestAdmitPoolWaitTimeout: a query that cannot get a pool slot within
// the front's timeout is answered 503 + Retry-After, and counted.
func TestAdmitPoolWaitTimeout(t *testing.T) {
	f, reg, entered, release := parkedFront(1, 4, 20*time.Millisecond)
	h := f.Handler()
	codes := make(chan int, 1)
	go func() { codes <- post(t, h, `{"k":1}`).Code }()
	<-entered

	wantError(t, post(t, h, `{"k":2}`), http.StatusServiceUnavailable, true)
	if got := reg.Counter("test/timeouts").Value(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	close(release)
	if c := <-codes; c != http.StatusOK {
		t.Fatalf("parked query answered %d, want 200", c)
	}
	if got := f.Admitted(); got != 0 {
		t.Fatalf("admitted = %d after the timed-out query left, want 0", got)
	}
}

// TestShutdownWaitsForAdmitted: in handler-only mode Shutdown returns only
// after the admitted query answered, and a query arriving while draining
// gets 503 + Retry-After without running.
func TestShutdownWaitsForAdmitted(t *testing.T) {
	f, _, entered, release := parkedFront(2, 2, 0)
	h := f.Handler()
	codes := make(chan int, 1)
	go func() { codes <- post(t, h, `{"k":1}`).Code }()
	<-entered

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- f.Shutdown(ctx)
	}()
	for !f.Draining() {
		time.Sleep(time.Millisecond)
	}
	wantError(t, post(t, h, `{"k":2}`), http.StatusServiceUnavailable, true)
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a query still admitted", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if c := <-codes; c != http.StatusOK {
		t.Fatalf("admitted query answered %d, want 200 (drain must not kill it)", c)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if len(entered) != 0 {
		t.Fatal("a query arriving while draining ran")
	}
}

// TestShutdownDeadline: Shutdown gives up with the context's error when
// an admitted query outlives it.
func TestShutdownDeadline(t *testing.T) {
	f, _, entered, release := parkedFront(1, 1, 0)
	defer close(release)
	go post(t, f.Handler(), `{"k":1}`)
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := f.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
}

// TestAdmitBadBodies: a body over 1 MiB, malformed JSON and a failed
// check are each answered 400 with the error envelope and no Retry-After,
// and none of them stays admitted.
func TestAdmitBadBodies(t *testing.T) {
	f, _, _, release := parkedFront(1, 1, 0)
	defer close(release)
	big := `{"k":1,"pad":"` + strings.Repeat("x", maxBody) + `"}`
	for _, body := range []string{big, `{"k":`, `[1,2]`} {
		wantError(t, post(t, f.Handler(), body), http.StatusBadRequest, false)
	}
	reg := metrics.NewRegistry()
	g := New(reg, "test", 1, 1, 0)
	g.HandleFunc("POST /q", func(w http.ResponseWriter, r *http.Request) {
		var req struct{}
		if _, done, ok := g.Admit(w, r, &req, func() error { return context.Canceled }); ok {
			done()
			t.Error("a failed check admitted the query")
		}
	})
	wantError(t, post(t, g.Handler(), `{}`), http.StatusBadRequest, false)
	if f.Admitted() != 0 || g.Admitted() != 0 {
		t.Fatalf("rejected bodies left queries admitted: %d, %d", f.Admitted(), g.Admitted())
	}
	if got := reg.Counter("test/errors").Value(); got != 0 {
		t.Fatalf("400s counted as errors: %d", got)
	}
}
