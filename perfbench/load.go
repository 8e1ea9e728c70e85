package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Headers the benchmark's client stamps on every request, so the
// instrumented handlers can parent their spans to the client's span.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// listener serves one handler over loopback HTTP until closed.
type listener struct {
	srv  *http.Server
	URL  string
	done chan error
}

// listen starts serving h on an ephemeral loopback port.
func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, URL: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// Close stops the listener and waits for its serve loop to return.
func (l *listener) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// closeClient drops the client's idle connections.
func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// waitReady polls GET url until it answers 200.
func waitReady(c *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %v", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// exchange is one completed request as the client saw it.
type exchange struct {
	Req     *request
	ReqID   int64
	Status  int
	Body    []byte
	Err     error
	Latency time.Duration
}

// Failed reports a transport error or a non-2xx status.
func (e *exchange) Failed() bool { return e.Err != nil || e.Status/100 != 2 }

// post sends one JSON body and reads the whole answer. name and track
// place the client span; reqID goes out in a header.
func post(c *http.Client, tr *Tracer, url string, body []byte, name, track string, reqID int64) (int, []byte, time.Duration, error) {
	sp := tr.Start(name, track, 0, reqID)
	start := time.Now()
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(hdrReq, strconv.FormatInt(reqID, 10))
	if id := sp.ID(); id != 0 {
		hr.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	}
	resp, err := c.Do(hr)
	if err != nil {
		sp.End()
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	sp.End()
	return resp.StatusCode, out, lat, err
}

// closedLoop runs clients that each send their next request only after
// the previous answer arrived, drawing requests in turn from reqs, until
// the window closes. Client i's spans go on the track tag+"client<i>".
func closedLoop(c *http.Client, tr *Tracer, tag, base string, reqs *queryStream, clients int, window time.Duration) []exchange {
	var (
		mu  sync.Mutex
		all []exchange
		wg  sync.WaitGroup
	)
	stop := time.Now().Add(window)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			track := tag + "client" + strconv.Itoa(cl)
			var mine []exchange
			for time.Now().Before(stop) {
				rq, id := reqs.Next()
				st, body, lat, err := post(c, tr, base+rq.Path, rq.Body, "client."+rq.Kind.String(), track, id)
				mine = append(mine, exchange{Req: rq, ReqID: id, Status: st, Body: body, Err: err, Latency: lat})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	return all
}

// getJSON fetches url into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counterValue reads one counter from a /v1/metrics snapshot.
func counterValue(c *http.Client, url, name string) (int64, error) {
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := getJSON(c, url, &snap); err != nil {
		return 0, err
	}
	return snap.Counters[name], nil
}

// latenciesMS extracts the successful exchanges' latencies in ms.
func latenciesMS(xs []exchange) []float64 {
	out := make([]float64, 0, len(xs))
	for i := range xs {
		if !xs[i].Failed() {
			out = append(out, millis(xs[i].Latency))
		}
	}
	return out
}
