package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/front"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/par"
)

// Config configures a seed-serving Server. Graph, KMax and Epsilon are
// required; everything else has serving-grade defaults.
type Config struct {
	// Graph is the loaded graph all sketches are sampled from.
	Graph *graph.Graph
	// Model is the default diffusion model for queries that do not name
	// one.
	Model diffuse.Model
	// Epsilon is the default accuracy parameter sketches are sized for.
	Epsilon float64
	// KMax bounds the seed-set size a sketch serves: queries for any
	// k <= KMax run over the same theta samples.
	KMax int
	// Seed is the default sampling seed.
	Seed uint64
	// Workers is the thread count for sampling and per-query selection
	// (<= 0 uses all cores).
	Workers int
	// Schedule is the sampling-loop schedule for sketch builds (dynamic
	// work-stealing by default; sketch content does not depend on it).
	Schedule imm.Schedule
	// Kernel is the sampling kernel for sketch builds (fused CSR frontier
	// batches by default; sketch content does not depend on it — the two
	// kernels are byte-identical in the per-sample RNG mode builds use).
	Kernel imm.Kernel
	// Store is the RRR store kind sketches are built and served under
	// (flat identity labeling by default; imm.StoreCoded serves from the
	// frequency-relabeled byte-coded store — same query seeds, >= 3x
	// smaller resident sketch).
	Store imm.StoreKind
	// MaxConcurrent bounds queries executing at once (the worker pool;
	// <= 0 defaults to 2).
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a pool slot; one more query past
	// MaxConcurrent+MaxQueue is answered 429 + Retry-After instead of
	// queueing (<= 0 defaults to 16).
	MaxQueue int
	// QueryTimeout bounds one request's total wait: pool admission plus
	// sketch population. A query that cannot start in time gets 503 +
	// Retry-After while any build it triggered keeps running (<= 0
	// defaults to 60s).
	QueryTimeout time.Duration
	// Metrics receives server and engine instrumentation; a fresh registry
	// is created when nil (exposed either way at /v1/metrics).
	Metrics *metrics.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Sketch, when non-nil, is a prebuilt (typically snapshot-loaded)
	// sketch installed at startup — the warm start. Its graph digest must
	// match Graph. In dynamic mode the sketch's delta log is replayed to
	// restore the mutated graph; outside it, a sketch carrying a delta log
	// is rejected (its samples no longer describe Graph).
	Sketch *Sketch
	// Dynamic enables dynamic-graph mode: the server owns one incremental
	// sketch over Graph, serves every query from it, and accepts edge
	// mutations at POST /v1/graph/delta. Per-query model/epsilon/seed
	// overrides are rejected in this mode — there is one sketch, tracking
	// one configuration (see DESIGN.md §15).
	Dynamic bool
	// WeightPolicy tells dynamic mode how edge weights are re-derived
	// after each mutation batch (imm.WeightsExplicit by default;
	// imm.WeightsWC recomputes weighted-cascade weights from the new
	// in-degrees).
	WeightPolicy imm.WeightPolicy
	// MaxDeltaOps bounds the edge ops accepted in one delta batch (<= 0
	// defaults to 4096).
	MaxDeltaOps int
	// DefaultBudget, DefaultAudience and DefaultBlocked are query-shape
	// defaults (the -budget/-audience/-blocked immserve flags): a
	// /v1/seeds request that leaves the corresponding field absent
	// inherits them. Zero/nil means plain top-k, exactly as before.
	DefaultBudget   float64
	DefaultAudience []graph.Vertex
	DefaultBlocked  []graph.Vertex
	// ClusterShard, when non-nil, runs this server as one shard replica of
	// a router-fronted fleet (internal/cluster): the shard API is mounted
	// (POST /v1/shard/op, GET /v1/shard/info, GET /v1/snapshot for peer
	// bootstrap) and POST /v1/seeds is rejected with a pointer to the
	// router — a shard holds a slice of the theta samples, so answering
	// seed queries locally would be silently wrong. The shard's graph
	// digest must match Graph; Dynamic mode and shard mode are mutually
	// exclusive.
	ClusterShard *cluster.Shard
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = par.DefaultWorkers()
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 60 * time.Second
	}
	if c.MaxDeltaOps <= 0 {
		c.MaxDeltaOps = 4096
	}
	return c
}

// maxSketches bounds resident sketches across distinct query
// configurations; the oldest finished sketch is evicted past it.
const maxSketches = 4

// Server is the resident sketch-serving subsystem. Create one with New,
// mount Handler on any mux or listener (or use Start), and stop it with
// Shutdown, which drains in-flight queries. The embedded front
// (internal/front) owns admission, decoding and the HTTP lifecycle.
type Server struct {
	*front.Front
	cfg    Config
	digest uint64
	reg    *metrics.Registry
	cache  *sketchCache

	// Dynamic mode: dynMu serializes mutations to dyn; dynSk holds the
	// immutable query-ready view, republished after every batch, that
	// queries load lock-free. A query therefore sees the sketch as of
	// some fully applied epoch — never a half-applied batch (the bounded
	// staleness contract).
	dynMu sync.Mutex
	dyn   *imm.DynamicSketch
	dynSk atomic.Pointer[Sketch]

	// Delta coalescing: handlers enqueue decoded batches under deltaMu,
	// then race for dynMu; whoever wins drains the whole queue in one
	// repair pass (see drainDeltasLocked).
	deltaMu      sync.Mutex
	deltaPending []*pendingDelta

	mQueries, mBuilds, mDeltaBatches, mCoalesced                *metrics.Counter
	mQueryBudgeted, mQueryTargeted, mQueryBlocked, mQuerySpread *metrics.Counter
	mSketches                                                   *metrics.Gauge
	mLatency                                                    *metrics.Histogram

	// testQueryHook, when set, runs inside the query handlers after pool
	// admission — the seam load and drain tests use to hold a query in
	// flight deterministically.
	testQueryHook func()
}

// New validates cfg, prewarms the default sketch slot if cfg.Sketch is
// given, and returns a ready Server (no listener yet).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Graph == nil {
		return nil, errors.New("server: Config.Graph is required")
	}
	n := cfg.Graph.NumVertices()
	if n < 2 {
		return nil, errors.New("server: graph must have at least 2 vertices")
	}
	if cfg.KMax < 1 || cfg.KMax > n {
		return nil, fmt.Errorf("server: kMax = %d, want 1 <= kMax <= %d", cfg.KMax, n)
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("server: epsilon = %v, want 0 < eps < 1", cfg.Epsilon)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		Front:          front.New(reg, "server", cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueryTimeout),
		cfg:            cfg,
		digest:         cfg.Graph.Digest(),
		reg:            reg,
		cache:          newSketchCache(maxSketches),
		mQueries:       reg.Counter("server/queries"),
		mDeltaBatches:  reg.Counter("server/delta-batches"),
		mCoalesced:     reg.Counter("server/delta-coalesced"),
		mBuilds:        reg.Counter("server/sketch-builds"),
		mQueryBudgeted: reg.Counter("server/query-budgeted"),
		mQueryTargeted: reg.Counter("server/query-targeted"),
		mQueryBlocked:  reg.Counter("server/query-blocked"),
		mQuerySpread:   reg.Counter("server/query-spread"),
		mSketches:      reg.Gauge("server/sketches"),
		mLatency:       reg.Histogram("server/query-us"),
	}
	if cfg.Sketch != nil && cfg.Sketch.Key.GraphDigest != s.digest {
		return nil, fmt.Errorf("server: provided sketch is for graph %016x, loaded graph is %016x",
			cfg.Sketch.Key.GraphDigest, s.digest)
	}
	if sh := cfg.ClusterShard; sh != nil {
		if cfg.Dynamic {
			return nil, errors.New("server: shard mode and dynamic mode are mutually exclusive (shards serve static sketches)")
		}
		if sh.Meta.GraphDigest != s.digest {
			return nil, fmt.Errorf("server: shard was sampled from graph %016x, loaded graph is %016x",
				sh.Meta.GraphDigest, s.digest)
		}
	}
	if cfg.Dynamic {
		if err := s.initDynamic(); err != nil {
			return nil, err
		}
	} else if cfg.Sketch != nil {
		if len(cfg.Sketch.Deltas) > 0 {
			return nil, errors.New("server: snapshot carries a delta log; its samples describe the mutated graph, serve it with Dynamic mode")
		}
		s.cache.put(cfg.Sketch)
		s.mSketches.Set(int64(s.cache.len()))
	}
	s.HandleFunc("POST /v1/graph/delta", s.handleDelta)
	s.HandleFunc("GET /healthz", s.handleHealthz)
	if sh := cfg.ClusterShard; sh == nil {
		s.HandleFunc("POST /v1/seeds", s.handleSeeds)
		s.HandleFunc("POST /v1/spread", s.handleSpread)
	} else {
		// A shard holds a slice of the samples: answering a query from
		// it alone would be silently wrong.
		refuse := func(w http.ResponseWriter, r *http.Request) {
			if s.Draining() {
				front.WriteBackoff(w, http.StatusServiceUnavailable, "draining")
				return
			}
			s.Error(w, http.StatusBadRequest,
				"this replica serves shard %d of %d; POST %s to the cluster router instead",
				sh.ShardIdx, sh.ShardCount, r.URL.Path)
		}
		s.HandleFunc("POST /v1/seeds", refuse)
		s.HandleFunc("POST /v1/spread", refuse)
		s.HandleFunc("POST "+cluster.ShardOpPath, sh.ServeOp)
		s.HandleFunc("GET /v1/shard/info", sh.ServeInfo)
		s.HandleFunc("GET /v1/snapshot", sh.ServeSnapshot)
	}
	if cfg.EnablePprof {
		s.HandleFunc("/debug/pprof/", pprof.Index)
		s.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// DefaultKey is the sketch key of the server's configured defaults.
func (s *Server) DefaultKey() SketchKey {
	return SketchKey{
		GraphDigest: s.digest,
		Model:       s.cfg.Model,
		Epsilon:     s.cfg.Epsilon,
		KMax:        s.cfg.KMax,
		Seed:        s.cfg.Seed,
	}
}

// Prewarm synchronously populates the default sketch (sampling if no
// snapshot was installed), so the first query does not pay the build. A
// dynamic server is built warm by New; Prewarm is then a no-op.
func (s *Server) Prewarm(ctx context.Context) error {
	if s.cfg.Dynamic {
		return nil
	}
	_, _, err := s.sketchFor(ctx, s.DefaultKey())
	return err
}

// seedsResponse is the POST /v1/seeds reply.
type seedsResponse struct {
	K                int                `json:"k"`
	KMax             int                `json:"kMax"`
	Seeds            []graph.Vertex     `json:"seeds"`
	CoverageFraction float64            `json:"coverageFraction"`
	EstimatedSpread  float64            `json:"estimatedSpread"`
	Theta            int64              `json:"theta"`
	Cached           bool               `json:"cached"`
	Source           string             `json:"source"`
	DeltaEpoch       uint64             `json:"deltaEpoch,omitempty"`
	Report           *metrics.RunReport `json:"report"`
	// Query-diversity extras, present only on non-plain queries so plain
	// responses keep their exact historical shape.
	Gains       []int64 `json:"gains,omitempty"`
	Eligible    int64   `json:"eligible,omitempty"`
	SpentBudget float64 `json:"spentBudget,omitempty"`
}

// spreadResponse is the POST /v1/spread reply. EstimatedSpread is
// n * covered / theta — with an audience, the expected number of audience
// members influenced.
type spreadResponse struct {
	Covered          int64   `json:"covered"`
	Eligible         int64   `json:"eligible"`
	CoverageFraction float64 `json:"coverageFraction"`
	EstimatedSpread  float64 `json:"estimatedSpread"`
	Theta            int64   `json:"theta"`
	Cached           bool    `json:"cached"`
	Source           string  `json:"source"`
	DeltaEpoch       uint64  `json:"deltaEpoch,omitempty"`
}

// sketchFor resolves (building at most once, concurrently with other
// keys) the sketch for key.
func (s *Server) sketchFor(ctx context.Context, key SketchKey) (*Sketch, bool, error) {
	sk, hit, err := s.cache.get(ctx, key, func() (*Sketch, error) {
		s.mBuilds.Inc()
		return BuildSketch(s.cfg.Graph, key, s.cfg.Workers, s.cfg.Schedule, s.cfg.Kernel, s.cfg.Store, s.reg)
	})
	s.mSketches.Set(int64(s.cache.len()))
	return sk, hit, err
}

// resolveKey applies a request's sketch-configuration overrides to key;
// dynamic mode refuses them, since it serves one sketch.
func (s *Server) resolveKey(key *SketchKey, ov front.Overrides) error {
	if s.cfg.Dynamic {
		return ov.Fixed("dynamic mode")
	}
	if ov.Model != nil {
		m, err := diffuse.ParseModel(*ov.Model)
		if err != nil {
			return err
		}
		key.Model = m
	}
	if ov.Epsilon != nil {
		if *ov.Epsilon <= 0 || *ov.Epsilon >= 1 {
			return fmt.Errorf("epsilon = %v, want 0 < eps < 1", *ov.Epsilon)
		}
		key.Epsilon = *ov.Epsilon
	}
	if ov.Seed != nil {
		key.Seed = *ov.Seed
	}
	return nil
}

// prelude runs what both query handlers share: the front's admission
// with req's sketch-key overrides (ov) resolved and the handler's own
// check run before the pool wait, then sketch resolution (cache +
// single-flight, or the latest dynamic epoch). On success the handler
// answers from sk and calls done; otherwise the response is written.
func (s *Server) prelude(w http.ResponseWriter, r *http.Request, req any, ov *front.Overrides, check func() error) (sk *Sketch, hit bool, done func(), ok bool) {
	key := s.DefaultKey()
	ctx, done, ok := s.Admit(w, r, req, func() error {
		if err := s.resolveKey(&key, *ov); err != nil {
			return err
		}
		return check()
	})
	if !ok {
		return nil, false, nil, false
	}
	if s.testQueryHook != nil {
		s.testQueryHook()
	}
	if s.cfg.Dynamic {
		// Lock-free load of the latest published epoch.
		return s.dynSk.Load(), true, done, true
	}
	sk, hit, err := s.sketchFor(ctx, key)
	switch {
	case err == nil:
		return sk, hit, done, true
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.TimedOut(w, "sketch for (%s) still building: %v", key, err)
	default:
		s.Error(w, http.StatusInternalServerError, "building sketch: %v", err)
	}
	done()
	return nil, false, nil, false
}

// handleSeeds is the query path: the shared prelude, then copy-on-read
// indexed selection and the per-query report.
func (s *Server) handleSeeds(w http.ResponseWriter, r *http.Request) {
	var (
		req front.SeedsRequest
		q   imm.Query
	)
	sk, hit, done, ok := s.prelude(w, r, &req, &req.Overrides, func() (err error) {
		def := imm.Query{Budget: s.cfg.DefaultBudget, Audience: s.cfg.DefaultAudience, Blocked: s.cfg.DefaultBlocked}
		q, err = req.Query(def, s.cfg.KMax, s.cfg.Graph.NumVertices())
		return err
	})
	if !ok {
		return
	}
	defer done()

	start := time.Now()
	var (
		seeds   []graph.Vertex
		covered int64
		qr      *imm.QueryResult
		err     error
	)
	if q.Plain() {
		seeds, covered = sk.Query(q.K, s.cfg.Workers)
	} else {
		qr, err = sk.QueryEx(q, s.cfg.Workers)
		if err != nil {
			s.Error(w, http.StatusBadRequest, "%v", err)
			return
		}
		seeds, covered = qr.Seeds, qr.Covered
		if q.Budgeted() {
			s.mQueryBudgeted.Inc()
		}
		if len(q.Audience) > 0 {
			s.mQueryTargeted.Inc()
		}
		if len(q.Blocked) > 0 {
			s.mQueryBlocked.Inc()
		}
	}
	dur := time.Since(start)
	s.mQueries.Inc()
	s.mLatency.Observe(dur.Microseconds())

	rep := sk.report(q.K, s.cfg.Workers, dur, seeds, covered)
	resp := seedsResponse{
		K:                q.K,
		KMax:             sk.Key.KMax,
		Seeds:            seeds,
		CoverageFraction: rep.CoverageFraction,
		EstimatedSpread:  rep.EstimatedSpread,
		Theta:            sk.Theta,
		Cached:           hit,
		Source:           sk.Source,
		DeltaEpoch:       sk.DeltaEpoch,
		Report:           rep,
	}
	if qr != nil {
		resp.Gains = qr.Gains
		resp.Eligible = qr.Eligible
		resp.SpentBudget = qr.SpentBudget
	}
	front.WriteJSON(w, http.StatusOK, resp)
}

// handleSpread is the seed-set estimation path: the shared prelude, then
// a stateless coverage count over the resident samples (no greedy, no
// purging).
func (s *Server) handleSpread(w http.ResponseWriter, r *http.Request) {
	var req front.SpreadRequest
	sk, hit, done, ok := s.prelude(w, r, &req, &req.Overrides, func() error {
		return req.Validate(s.cfg.Graph.NumVertices())
	})
	if !ok {
		return
	}
	defer done()

	start := time.Now()
	covered, eligible, err := sk.Spread(req.Seeds, req.Audience)
	if err != nil {
		s.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	dur := time.Since(start)
	s.mQueries.Inc()
	s.mQuerySpread.Inc()
	s.mLatency.Observe(dur.Microseconds())

	resp := spreadResponse{
		Covered:    covered,
		Eligible:   eligible,
		Theta:      sk.Theta,
		Cached:     hit,
		Source:     sk.Source,
		DeltaEpoch: sk.DeltaEpoch,
	}
	if c := sk.Col.Count(); c > 0 {
		resp.CoverageFraction = float64(covered) / float64(c)
	}
	resp.EstimatedSpread = resp.CoverageFraction * float64(sk.Col.NumVertices())
	front.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness: 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		front.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	front.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
