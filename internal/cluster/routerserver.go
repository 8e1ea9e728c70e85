package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"influmax/internal/front"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/trace"
)

// RouterServerConfig configures the router's HTTP front.
type RouterServerConfig struct {
	// MaxConcurrent bounds queries executing at once (<= 0: 4); MaxQueue
	// bounds queries waiting past that before 429s (<= 0: 16).
	MaxConcurrent int
	MaxQueue      int
}

// RouterServer is the HTTP front of a Router: POST /v1/seeds (JSON, with
// an NDJSON streaming mode for partial results), POST /v1/spread, GET
// /healthz, GET /v1/metrics — the same surface shape as a single
// immserve, so clients move from one replica to a fleet by changing the
// address. The embedded front (internal/front) owns admission, decoding
// and the HTTP lifecycle; its instruments are router/*.
type RouterServer struct {
	*front.Front
	rt *Router
}

// NewRouterServer wraps rt; the router's metrics registry doubles as the
// server's.
func NewRouterServer(rt *Router, cfg RouterServerConfig) *RouterServer {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	s := &RouterServer{Front: front.New(rt.reg, "router", cfg.MaxConcurrent, cfg.MaxQueue, 0), rt: rt}
	s.HandleFunc("POST /v1/seeds", s.handleSeeds)
	s.HandleFunc("POST /v1/spread", s.handleSpread)
	s.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Report assembles the router's RunReport: fleet shape, per-shard
// sub-reports (the PerRank slots), and the metrics snapshot. Flushed by
// cmd/immrouter on shutdown — the CI cluster-smoke artifact.
func (s *RouterServer) Report() *metrics.RunReport {
	rep := metrics.NewRunReport("IMMrouter", trace.Times{})
	canon := s.rt.Fleet()
	rep.K = canon.KMax
	rep.Epsilon = canon.Epsilon
	rep.Seed = canon.Seed
	rep.Theta = canon.Theta
	rep.Ranks = s.rt.Shards()
	s.rt.mu.Lock()
	var total int64
	for i := range s.rt.conns {
		rr := metrics.RankReport{Rank: i, LocalSamples: int64(s.rt.info[i].Samples)}
		if s.rt.failed[i] {
			rr.Comm = map[string]int64{"cluster/failed": 1}
		}
		total += rr.LocalSamples
		rep.PerRank = append(rep.PerRank, rr)
	}
	s.rt.mu.Unlock()
	rep.SamplesGenerated = total
	rep.Metrics = s.rt.reg.Snapshot()
	return rep
}

// routerSeedsResponse is the non-streaming reply, and the final line of a
// streaming one.
type routerSeedsResponse struct {
	K                int            `json:"k"`
	KMax             int            `json:"kMax"`
	Seeds            []graph.Vertex `json:"seeds"`
	Gains            []int64        `json:"gains,omitempty"`
	CoverageFraction float64        `json:"coverageFraction"`
	EstimatedSpread  float64        `json:"estimatedSpread"`
	Theta            int64          `json:"theta"`
	TotalSamples     int64          `json:"totalSamples"`
	Shards           int            `json:"shards"`
	Degraded         bool           `json:"degraded"`
	FailedShards     []int          `json:"failedShards"`
	ShardEpochs      []uint64       `json:"shardEpochs"`
	Rounds           int            `json:"rounds"`
	// Query-diversity extras, present only on non-plain queries so classic
	// top-k responses keep their exact historical shape.
	Eligible    int64   `json:"eligible,omitempty"`
	SpentBudget float64 `json:"spentBudget,omitempty"`
}

// routerSpreadResponse is the POST /v1/spread reply.
type routerSpreadResponse struct {
	Covered          int64   `json:"covered"`
	Eligible         int64   `json:"eligible"`
	CoverageFraction float64 `json:"coverageFraction"`
	EstimatedSpread  float64 `json:"estimatedSpread"`
	Theta            int64   `json:"theta"`
	TotalSamples     int64   `json:"totalSamples"`
	Shards           int     `json:"shards"`
	Degraded         bool    `json:"degraded"`
	FailedShards     []int   `json:"failedShards"`
}

// streamedSeed is one NDJSON partial-result line: a seed the greedy loop
// just committed.
type streamedSeed struct {
	Index int          `json:"index"`
	Seed  graph.Vertex `json:"seed"`
	Gain  int64        `json:"gain"`
}

// handleSeeds serves POST /v1/seeds: the routed greedy selection, as one
// JSON document or streamed as NDJSON. The fleet serves one sketch
// configuration, so model/epsilon/seed overrides are refused.
func (s *RouterServer) handleSeeds(w http.ResponseWriter, r *http.Request) {
	fleet := s.rt.Fleet()
	var (
		req front.SeedsRequest
		q   imm.Query
	)
	ctx, done, ok := s.Admit(w, r, &req, func() (err error) {
		if err = req.Fixed("the cluster router"); err != nil {
			return err
		}
		q, err = req.Query(imm.Query{}, fleet.KMax, fleet.NumVertices)
		return err
	})
	if !ok {
		return
	}
	defer done()

	var onSeed func(i int, v graph.Vertex, gain int64)
	var enc *json.Encoder
	if req.Stream {
		// NDJSON: one line per committed seed as the greedy loop runs,
		// then the full summary as the final line. Lines are flushed so a
		// client sees seeds as they are chosen; gains on seed lines are
		// as-of selection and may be restated by the summary after a
		// failover.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc = json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		onSeed = func(i int, v graph.Vertex, gain int64) {
			enc.Encode(streamedSeed{Index: i, Seed: v, Gain: gain})
			if flusher != nil {
				flusher.Flush()
			}
		}
	}

	// The request's context ends the routed rounds once the client is
	// gone or the query timeout passes.
	res, err := s.rt.SelectQueryContext(ctx, q, onSeed)
	if err != nil {
		if req.Stream {
			enc.Encode(front.ErrorResponse{Error: err.Error()})
			return
		}
		s.writeFailure(w, err)
		return
	}
	resp := routerSeedsResponse{
		K:                q.K,
		KMax:             fleet.KMax,
		Seeds:            res.Seeds,
		Gains:            res.Gains,
		CoverageFraction: res.CoverageFraction,
		EstimatedSpread:  res.EstimatedSpread,
		Theta:            res.Theta,
		TotalSamples:     res.TotalSamples,
		Shards:           res.Shards,
		Degraded:         res.Degraded,
		FailedShards:     append([]int{}, res.FailedShards...),
		ShardEpochs:      res.ShardEpochs,
		Rounds:           res.Rounds,
	}
	if !q.Plain() {
		resp.Eligible = res.Eligible
		resp.SpentBudget = res.SpentBudget
	}
	if req.Stream {
		enc.Encode(resp)
		return
	}
	front.WriteJSON(w, http.StatusOK, resp)
}

// handleSpread serves POST /v1/spread: the routed seed-set spread
// estimate, under the same admission control as /v1/seeds.
func (s *RouterServer) handleSpread(w http.ResponseWriter, r *http.Request) {
	var req front.SpreadRequest
	_, done, ok := s.Admit(w, r, &req, func() error {
		if err := req.Fixed("the cluster router"); err != nil {
			return err
		}
		return req.Validate(s.rt.Fleet().NumVertices)
	})
	if !ok {
		return
	}
	defer done()

	res, err := s.rt.Spread(req.Seeds, req.Audience)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	front.WriteJSON(w, http.StatusOK, routerSpreadResponse{
		Covered:          res.Covered,
		Eligible:         res.Eligible,
		CoverageFraction: res.CoverageFraction,
		EstimatedSpread:  res.EstimatedSpread,
		Theta:            res.Theta,
		TotalSamples:     res.TotalSamples,
		Shards:           res.Shards,
		Degraded:         res.Degraded,
		FailedShards:     append([]int{}, res.FailedShards...),
	})
}

// writeFailure answers a routed query that failed: a fleet too busy to
// hold its sessions (errBusy) is told to back off, a query stopped by its
// context (client gone or query timeout) counts as a timeout, an empty
// fleet (ErrNoShards) is unavailable, anything else is a 500.
func (s *RouterServer) writeFailure(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.TimedOut(w, "routed query stopped: %v", err)
	case errors.Is(err, errBusy):
		front.WriteBackoff(w, http.StatusServiceUnavailable, "%v", err)
	case err == ErrNoShards:
		s.Error(w, http.StatusServiceUnavailable, "%v", err)
	default:
		s.Error(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleHealthz: 200 while at least one shard is alive and not draining;
// 503 otherwise. The body carries the alive/fleet split either way.
func (s *RouterServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	failed := s.rt.FailedShards()
	alive := s.rt.Shards() - len(failed)
	status := http.StatusOK
	state := "ok"
	switch {
	case s.Draining():
		status, state = http.StatusServiceUnavailable, "draining"
	case alive == 0:
		status, state = http.StatusServiceUnavailable, "no shards"
	case len(failed) > 0:
		state = "degraded"
	}
	front.WriteJSON(w, status, map[string]any{
		"status": state, "shards": s.rt.Shards(), "alive": alive, "failedShards": failed,
	})
}
