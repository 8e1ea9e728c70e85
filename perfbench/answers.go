package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/server"
)

// answer is the part of a served reply the program must get exactly
// right. Both front ends' replies decode into it; re-encoded, a served
// answer and the in-process one must be byte-identical.
type answer struct {
	Seeds            []graph.Vertex `json:"seeds,omitempty"`
	Gains            []int64        `json:"gains,omitempty"`
	Covered          int64          `json:"covered,omitempty"`
	Eligible         int64          `json:"eligible,omitempty"`
	SpentBudget      float64        `json:"spentBudget,omitempty"`
	CoverageFraction float64        `json:"coverageFraction"`
	EstimatedSpread  float64        `json:"estimatedSpread"`
	Theta            int64          `json:"theta"`
}

func (a answer) bytes() []byte {
	b, err := json.Marshal(a)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding an answer: %v", err))
	}
	return b
}

// query converts a request into the program's query.
func (rq *request) query() imm.Query {
	return imm.Query{K: rq.K, Budget: rq.Budget, Audience: rq.Audience, Blocked: rq.Blocked}
}

// sketchAnswer computes rq's answer in-process on sk, the way the server
// computes it, and returns it with the call's duration. withGains asks
// for plain queries through QueryEx, whose gains the router reports.
func sketchAnswer(sk *server.Sketch, rq *request, workers int, withGains bool) (answer, time.Duration, error) {
	count := float64(sk.Col.Count())
	n := float64(sk.Col.NumVertices())
	a := answer{Theta: sk.Theta}
	var covered int64
	t0 := time.Now()
	switch {
	case rq.Kind == reqSpread:
		cov, elig, err := sk.Spread(rq.Seeds, rq.Audience)
		if err != nil {
			return a, 0, err
		}
		covered, a.Covered, a.Eligible = cov, cov, elig
	case rq.Kind == reqPlain && !withGains:
		a.Seeds, covered = sk.Query(rq.K, workers)
	default:
		qr, err := sk.QueryEx(rq.query(), workers)
		if err != nil {
			return a, 0, err
		}
		a.Seeds, a.Gains, covered = qr.Seeds, qr.Gains, qr.Covered
		if rq.Kind != reqPlain {
			a.Eligible, a.SpentBudget = qr.Eligible, qr.SpentBudget
		}
	}
	d := time.Since(t0)
	if count > 0 {
		a.CoverageFraction = float64(covered) / count
	}
	a.EstimatedSpread = a.CoverageFraction * n
	return a, d, nil
}

// inprocReferee answers requests in-process on sk, each call a span
// "select.<kind>" on the track "inproc" when traced.
func (r *run) inprocReferee(sk *server.Sketch, workers int) *referee {
	return newReferee(func(rq *request) (answer, time.Duration, error) {
		sp := r.tr.Start("select."+rq.Kind.String(), "inproc", 0, 0)
		defer sp.End()
		return sketchAnswer(sk, rq, workers, false)
	})
}

// referee checks served answers against in-process answers, computing
// each distinct request's answer once.
type referee struct {
	want func(rq *request) (answer, time.Duration, error)
	memo map[string][]byte
	// Times holds the in-process call time of each distinct request.
	Times map[string]time.Duration
}

func newReferee(want func(rq *request) (answer, time.Duration, error)) *referee {
	return &referee{want: want, memo: map[string][]byte{}, Times: map[string]time.Duration{}}
}

// expect returns rq's in-process answer bytes.
func (f *referee) expect(rq *request) ([]byte, error) {
	if b, ok := f.memo[rq.Key]; ok {
		return b, nil
	}
	a, d, err := f.want(rq)
	if err != nil {
		return nil, err
	}
	b := a.bytes()
	f.memo[rq.Key] = b
	f.Times[rq.Key] = d
	return b, nil
}

// checkExchanges fails the run for every failed or wrong answer. served
// decodes a reply body into an answer, or errors for a reply that is wrong
// beyond its answer (the router's degraded flag).
func (r *run) checkExchanges(xs []exchange, f *referee, served func([]byte) (answer, error)) {
	// Check in request order, so a run's first mismatch is reported
	// first.
	sort.Slice(xs, func(i, j int) bool { return xs[i].ReqID < xs[j].ReqID })
	for i := range xs {
		x := &xs[i]
		if x.Failed() {
			r.fail("request %d (%s): status %d, error %v: %s", x.ReqID, x.Req.Kind, x.Status, x.Err, bytes.TrimSpace(x.Body))
			continue
		}
		got, err := served(x.Body)
		if err != nil {
			r.fail("request %d (%s): %v", x.ReqID, x.Req.Kind, err)
			continue
		}
		want, err := f.expect(x.Req)
		if err != nil {
			r.fail("request %d (%s): in-process answer: %v", x.ReqID, x.Req.Kind, err)
			continue
		}
		if gb := got.bytes(); !bytes.Equal(gb, want) {
			r.fail("request %d (%s %s): served %s, in-process %s", x.ReqID, x.Req.Kind, x.Req.Body, clip(gb), clip(want))
			continue
		}
		r.ok()
	}
}

func clip(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "..."
	}
	return string(b)
}

// decodeAnswer decodes a single-process reply.
func decodeAnswer(body []byte) (answer, error) {
	var a answer
	err := json.Unmarshal(body, &a)
	return a, err
}
