package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
)

// probeInterval rate-limits rejoin probing of failed shards: at most one
// probe sweep per interval, so a down replica costs queries one timeout
// per interval, not one per query.
const probeInterval = time.Second

// ErrNoShards reports a query that found no live shard to serve from.
var ErrNoShards = errors.New("cluster: no shards alive")

// Router fans a seed query out over a shard fleet. The fleet is one
// coverage source for imm.Greedy (DESIGN.md §18): at session start the
// shards' coverage counts are merged into the engine's counter, and every
// purge fans the seed out and subtracts the shards' merged decrements — the
// sample-partitioned Algorithm 4 of internal/dist, re-hosted behind the
// shard API. Because the merge is integer addition and the engine's argmax
// is the single-process one, the selected seeds are byte-identical to a
// single process holding the union of the shards' samples.
//
// A shard that fails mid-query (a transport failure within the net
// timeout, or a malformed reply) is dropped and the engine restarts
// on the survivors: fresh sessions, the seeds already chosen replayed to
// rebuild counter state, and the query finishes degraded — the
// pre-failure seed prefix stands, the response names the failed shards.
// A shard that answers a purge with an in-band error (its session was
// evicted under load) is not failed: the query restarts on the same
// shards, a bounded number of times. Failed shards are re-probed (at most
// once per second) and rejoin automatically once they answer with a
// matching identity again.
type Router struct {
	conns []Conn
	canon ShardInfo // fleet-wide configuration (ShardIdx/Samples not meaningful)

	mu        sync.Mutex
	failed    []bool
	info      []ShardInfo
	lastProbe time.Time

	nextSession atomic.Uint64

	reg                                      *metrics.Registry
	mQueries, mDegraded, mFailovers, mRounds *metrics.Counter
	mShardsAlive                             *metrics.Gauge
	mLatency                                 *metrics.Histogram
}

// NewRouter probes every shard connection and validates that the fleet is
// coherent: conn i must be shard i of len(conns), and all shards must
// agree on the sketch configuration (graph digest, model, epsilon, kMax,
// seed, theta, vertex count, epoch). Shards that do not answer the probe
// start out failed (the fleet serves degraded until they rejoin); at
// least one shard must answer. reg may be nil.
func NewRouter(conns []Conn, reg *metrics.Registry) (*Router, error) {
	if len(conns) == 0 {
		return nil, errors.New("cluster: router needs at least one shard connection")
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rt := &Router{
		conns:        conns,
		failed:       make([]bool, len(conns)),
		info:         make([]ShardInfo, len(conns)),
		reg:          reg,
		mQueries:     reg.Counter("router/queries"),
		mDegraded:    reg.Counter("router/degraded"),
		mFailovers:   reg.Counter("router/failovers"),
		mRounds:      reg.Counter("router/rounds"),
		mShardsAlive: reg.Gauge("router/shards-alive"),
		mLatency:     reg.Histogram("router/query-us"),
	}
	infos := make([]ShardInfo, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c Conn) {
			defer wg.Done()
			infos[i], errs[i] = c.Info()
		}(i, c)
	}
	wg.Wait()
	first := -1
	for i := range conns {
		if errs[i] == nil {
			first = i
			break
		}
	}
	if first < 0 {
		return nil, fmt.Errorf("cluster: no shard answered the startup probe (first error: %w)", errs[0])
	}
	rt.canon = infos[first]
	for i := range conns {
		if errs[i] != nil {
			rt.failed[i] = true
			continue
		}
		if err := rt.admit(i, infos[i]); err != nil {
			return nil, err
		}
	}
	rt.mShardsAlive.Set(int64(len(rt.aliveLocked())))
	return rt, nil
}

// admit validates one shard's identity against the fleet and records its
// info. Caller holds mu (or is still inside NewRouter).
func (rt *Router) admit(slot int, info ShardInfo) error {
	c := rt.canon
	switch {
	case info.ShardCount != len(rt.conns):
		return fmt.Errorf("cluster: shard %d says the fleet has %d shards, router has %d connections", slot, info.ShardCount, len(rt.conns))
	case info.ShardIdx != slot:
		return fmt.Errorf("cluster: connection %d reached shard %d; order the -shards list by shard index", slot, info.ShardIdx)
	case info.GraphDigest != c.GraphDigest, info.Model != c.Model, info.Epsilon != c.Epsilon,
		info.KMax != c.KMax, info.Seed != c.Seed, info.Theta != c.Theta,
		info.NumVertices != c.NumVertices, info.Epoch != c.Epoch:
		return fmt.Errorf("cluster: shard %d was sampled under a different configuration than shard %d (graph %016x vs %016x, model %d vs %d, eps %g vs %g, kMax %d vs %d, seed %d vs %d, theta %d vs %d, epoch %d vs %d)",
			slot, c.ShardIdx, info.GraphDigest, c.GraphDigest, info.Model, c.Model,
			info.Epsilon, c.Epsilon, info.KMax, c.KMax, info.Seed, c.Seed,
			info.Theta, c.Theta, info.Epoch, c.Epoch)
	}
	rt.info[slot] = info
	return nil
}

// Fleet reports the fleet-wide sketch configuration the router validated
// at startup.
func (rt *Router) Fleet() ShardInfo { return rt.canon }

// Shards returns the fleet width.
func (rt *Router) Shards() int { return len(rt.conns) }

// FailedShards returns the slots currently considered failed, sorted.
func (rt *Router) FailedShards() []int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.failedLocked()
}

func (rt *Router) failedLocked() []int {
	var out []int
	for i, f := range rt.failed {
		if f {
			out = append(out, i)
		}
	}
	return out
}

func (rt *Router) aliveLocked() []int {
	out := make([]int, 0, len(rt.conns))
	for i, f := range rt.failed {
		if !f {
			out = append(out, i)
		}
	}
	return out
}

// markFailed records slots as failed.
func (rt *Router) markFailed(slots []int) {
	rt.mu.Lock()
	for _, s := range slots {
		rt.failed[s] = true
	}
	alive := len(rt.aliveLocked())
	rt.mu.Unlock()
	rt.mShardsAlive.Set(int64(alive))
}

// alive returns the live slots, first re-probing failed shards (rate
// limited) so a restarted replica rejoins without a router restart. A
// rejoining shard must present the exact fleet identity it had before.
func (rt *Router) alive() []int {
	rt.mu.Lock()
	var toProbe []int
	if time.Since(rt.lastProbe) >= probeInterval {
		toProbe = rt.failedLocked()
		rt.lastProbe = time.Now()
	}
	rt.mu.Unlock()
	if len(toProbe) > 0 {
		infos := make([]ShardInfo, len(toProbe))
		errs := make([]error, len(toProbe))
		var wg sync.WaitGroup
		for i, slot := range toProbe {
			wg.Add(1)
			go func(i, slot int) {
				defer wg.Done()
				infos[i], errs[i] = rt.conns[slot].Info()
			}(i, slot)
		}
		wg.Wait()
		rt.mu.Lock()
		for i, slot := range toProbe {
			if errs[i] == nil && rt.admit(slot, infos[i]) == nil {
				rt.failed[slot] = false
			}
		}
		rt.mu.Unlock()
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := rt.aliveLocked()
	rt.mShardsAlive.Set(int64(len(out)))
	return out
}

// RouterQuery is one routed selection request: imm.Query itself
// (DESIGN.md §17). Audience filtering and blocked purging are per-shard
// ops; the budgeted argmax runs router-side over the merged counter,
// exactly like the plain one.
type RouterQuery = imm.Query

// SelectResult is one routed query's outcome.
type SelectResult struct {
	// Seeds is the selected set in greedy order; Gains[i] is the marginal
	// covered-sample count of Seeds[i] under the shards that contributed
	// to the final counter state (after a failover, gains are recomputed
	// over the survivors so the summary is self-consistent).
	Seeds []graph.Vertex
	Gains []int64
	// CoverageFraction is covered/total over the participating shards'
	// samples; EstimatedSpread is n * CoverageFraction.
	CoverageFraction float64
	EstimatedSpread  float64
	// Theta is the fleet's sample count; TotalSamples the samples actually
	// participating (smaller than Theta when shards are down).
	Theta        int64
	TotalSamples int64
	// Shards is the fleet width; FailedShards lists the slots that did not
	// participate (failed before or during this query), sorted; Degraded
	// mirrors len(FailedShards) > 0.
	Shards       int
	FailedShards []int
	Degraded     bool
	// ShardEpochs is each slot's last-known mutation epoch.
	ShardEpochs []uint64
	// Rounds counts purge fan-outs, including restart replays (a padding
	// seed purges nothing and takes no round).
	Rounds int
	// Eligible is the participating samples passing the audience filter
	// (equals TotalSamples without one); SpentBudget the summed cost of
	// Seeds under a budgeted query (0 otherwise).
	Eligible    int64
	SpentBudget float64
	// Duration is the query wall time.
	Duration time.Duration
}

// Select runs the plain top-k query. onSeed, when non-nil, is called after
// each seed is committed (the streaming hook); gains reported there are
// as-of selection time and may be restated in the final result if a
// restart intervened.
func (rt *Router) Select(k int, onSeed func(i int, v graph.Vertex, gain int64)) (*SelectResult, error) {
	return rt.SelectQuery(RouterQuery{K: k}, onSeed)
}

// SelectQuery runs any routed query shape: plain, budgeted, targeted
// (audience), blocked, or combinations — imm.Greedy over the fleet's
// merged counter, byte-identical to imm.SelectQuerySketch over the union
// of the shards' samples. Audience filtering and blocked purging happen
// shard-side. A failover restarts the survivors' sessions, re-purges the
// blocked set and replays the committed seeds, so the degraded result is
// the survivors' exact answer.
func (rt *Router) SelectQuery(q RouterQuery, onSeed func(i int, v graph.Vertex, gain int64)) (*SelectResult, error) {
	return rt.SelectQueryContext(context.Background(), q, onSeed)
}

// SelectQueryContext is SelectQuery stopped by ctx: before every fan-out
// round (session start, purge, replay) the query checks ctx and, once it
// is done, ends its shard sessions and returns ctx.Err(). A query whose
// client has gone therefore sends no further rounds to the fleet.
func (rt *Router) SelectQueryContext(ctx context.Context, q RouterQuery, onSeed func(i int, v graph.Vertex, gain int64)) (*SelectResult, error) {
	start := time.Now()
	n := rt.canon.NumVertices
	if q.K < 1 || q.K > rt.canon.KMax {
		return nil, fmt.Errorf("cluster: k = %d, want 1 <= k <= kMax = %d", q.K, rt.canon.KMax)
	}
	if err := q.Validate(n); err != nil {
		return nil, err
	}
	alive := rt.alive()
	if len(alive) == 0 {
		return nil, ErrNoShards
	}
	rt.mQueries.Inc()

	src := &routerSource{ctx: ctx, rt: rt, audience: q.Audience, slots: alive}
	qr, err := imm.Greedy(src, n, q, 1, onSeed)
	if src.session != 0 {
		rt.endRound(src.session, src.slots)
	}
	if err != nil {
		return nil, err
	}

	totalSamples := rt.samples(src.slots)
	rt.mu.Lock()
	epochs := make([]uint64, len(rt.conns))
	for i := range rt.conns {
		epochs[i] = rt.info[i].Epoch
	}
	rt.mu.Unlock()
	failedSlots := rt.FailedShards()
	if len(failedSlots) > 0 {
		rt.mDegraded.Inc()
	}

	res := &SelectResult{
		Seeds:        qr.Seeds,
		Gains:        qr.Gains,
		Theta:        rt.canon.Theta,
		TotalSamples: totalSamples,
		Shards:       len(rt.conns),
		FailedShards: failedSlots,
		Degraded:     len(failedSlots) > 0,
		ShardEpochs:  epochs,
		Rounds:       src.rounds,
		Eligible:     qr.Eligible,
		SpentBudget:  qr.SpentBudget,
		Duration:     time.Since(start),
	}
	if totalSamples > 0 {
		res.CoverageFraction = float64(qr.Covered) / float64(totalSamples)
	}
	res.EstimatedSpread = res.CoverageFraction * float64(n)
	rt.mLatency.Observe(res.Duration.Microseconds())
	return res, nil
}

// maxRestarts bounds how often one routed query restarts on the same
// shards after an in-band purge refusal — a session the shard evicted
// under load (more than maxSessions open).
const maxRestarts = 3

// errBusy reports a routed query whose sessions kept being evicted; the
// router's HTTP front end answers it 503 with Retry-After.
var errBusy = errors.New("cluster: shard sessions evicted under load")

// routerSource is the fleet as an imm.CoverageSource. Start opens a
// session on every live slot and merges the shards' counts; Purge fans
// the seed out and subtracts the merged decrements. A transport failure
// marks the slot failed and drops it (failover); an in-band refusal keeps
// the slots. Either way the engine restarts the source. Both return
// ctx.Err() without a fan-out once the query's context is done.
type routerSource struct {
	ctx      context.Context
	rt       *Router
	audience []graph.Vertex
	slots    []int
	session  uint64
	rounds   int // purge rounds, including replays
	restarts int // in-band restarts so far
}

func (s *routerSource) Start(counter []int64) (int64, error) {
	rt := s.rt
	if s.session != 0 {
		rt.endRound(s.session, s.slots)
		s.session = 0
	}
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	s.session = rt.nextSession.Add(1)
	counts := make([][]int64, len(s.slots))
	eligs := make([]int64, len(s.slots))
	// A failed call marks and drops the slot; an in-band refusal (say, a
	// header-v1 snapshot without the root column refusing a filtered start)
	// aborts the query instead — the shard is healthy and its replicas
	// would all refuse alike, so failover would only erase the fleet.
	failedNow, inBand := rt.fanout(s.slots, func(i, slot int) error {
		var c []int64
		var elig int64
		var err error
		if len(s.audience) == 0 {
			c, err = rt.conns[slot].Start(s.session)
		} else {
			c, elig, err = rt.conns[slot].StartFiltered(s.session, s.audience)
		}
		if err == nil && len(c) != len(counter) {
			err = failedErr(slot, fmt.Errorf("cluster: shard %d returned %d counts, want %d", slot, len(c), len(counter)))
		}
		if err == nil {
			counts[i], eligs[i] = c, elig
		}
		return err
	})
	if inBand != nil {
		return 0, inBand
	}
	s.drop(failedNow)
	if len(s.slots) == 0 {
		return 0, ErrNoShards
	}
	for _, c := range counts {
		for v, x := range c {
			counter[v] += x
		}
	}
	if len(s.audience) == 0 {
		return rt.samples(s.slots), nil
	}
	var eligible int64
	for _, e := range eligs {
		eligible += e
	}
	return eligible, nil
}

func (s *routerSource) Purge(v graph.Vertex, counter []int64) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	rt := s.rt
	s.rounds++
	rt.mRounds.Inc()
	decs := make([][]DecPair, len(s.slots))
	failedNow, inBand := rt.fanout(s.slots, func(i, slot int) error {
		var err error
		decs[i], err = rt.conns[slot].Purge(s.session, v)
		return err
	})
	switch {
	case len(failedNow) > 0:
		rt.mFailovers.Inc()
		s.drop(failedNow)
		return imm.ErrRestart
	case inBand != nil:
		if s.restarts++; s.restarts > maxRestarts {
			return fmt.Errorf("%w: %d restarts (last: %v)", errBusy, maxRestarts, inBand)
		}
		return imm.ErrRestart
	}
	// Subtracting every shard's sparse decrements is addition, so arrival
	// order is irrelevant.
	for _, ds := range decs {
		for _, p := range ds {
			counter[p.V] -= int64(p.Dec)
		}
	}
	return nil
}

// drop marks slots failed and removes them from the source's slots.
func (s *routerSource) drop(slots []int) {
	if len(slots) > 0 {
		s.rt.markFailed(slots)
		s.slots = subtract(s.slots, slots)
	}
}

// samples sums the sample counts of slots.
func (rt *Router) samples(slots []int) int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var total int64
	for _, slot := range slots {
		total += int64(rt.info[slot].Samples)
	}
	return total
}

// SpreadResult is one routed spread estimate's outcome.
type SpreadResult struct {
	// Covered is how many participating samples the seed set covers;
	// Eligible how many pass the audience filter (all participating
	// samples without one).
	Covered  int64
	Eligible int64
	// Theta is the fleet's sample count; TotalSamples the samples actually
	// participating (smaller when shards are down).
	Theta        int64
	TotalSamples int64
	// CoverageFraction is Covered/TotalSamples; EstimatedSpread is
	// n * CoverageFraction — with an audience, the expected number of
	// audience members influenced.
	CoverageFraction float64
	EstimatedSpread  float64
	// Shards/FailedShards/Degraded mirror SelectResult.
	Shards       int
	FailedShards []int
	Degraded     bool
	// Duration is the query wall time.
	Duration time.Duration
}

// Spread estimates the influence of a caller-supplied seed set over the
// fleet's samples — the routed face of imm.CoverageOf. It is stateless
// (no session): each shard counts its covered and eligible samples and
// the router sums, so the estimate is byte-identical to a single process
// holding the union of the shards' samples. audience may be empty
// (unrestricted).
func (rt *Router) Spread(seeds, audience []graph.Vertex) (*SpreadResult, error) {
	start := time.Now()
	n := rt.canon.NumVertices
	if len(seeds) == 0 {
		return nil, errors.New("cluster: spread needs at least one seed")
	}
	for _, v := range seeds {
		if int(v) >= n {
			return nil, fmt.Errorf("cluster: seed vertex %d out of range (n = %d)", v, n)
		}
	}
	for _, v := range audience {
		if int(v) >= n {
			return nil, fmt.Errorf("cluster: audience vertex %d out of range (n = %d)", v, n)
		}
	}
	alive := rt.alive()
	if len(alive) == 0 {
		return nil, ErrNoShards
	}
	rt.mQueries.Inc()
	covs := make([]int64, len(alive))
	eligs := make([]int64, len(alive))
	failedNow, inBand := rt.fanout(alive, func(i, slot int) error {
		var err error
		covs[i], eligs[i], err = rt.conns[slot].Spread(seeds, audience)
		return err
	})
	if inBand != nil {
		return nil, inBand
	}
	if len(failedNow) > 0 {
		rt.markFailed(failedNow)
		alive = subtract(alive, failedNow)
	}
	if len(alive) == 0 {
		return nil, ErrNoShards
	}
	var covered, eligible int64
	for i := range covs {
		covered += covs[i]
		eligible += eligs[i]
	}

	totalSamples := rt.samples(alive)
	failedSlots := rt.FailedShards()
	if len(failedSlots) > 0 {
		rt.mDegraded.Inc()
	}

	res := &SpreadResult{
		Covered:      covered,
		Eligible:     eligible,
		Theta:        rt.canon.Theta,
		TotalSamples: totalSamples,
		Shards:       len(rt.conns),
		FailedShards: failedSlots,
		Degraded:     len(failedSlots) > 0,
		Duration:     time.Since(start),
	}
	if totalSamples > 0 {
		res.CoverageFraction = float64(covered) / float64(totalSamples)
	}
	res.EstimatedSpread = res.CoverageFraction * float64(n)
	rt.mLatency.Observe(res.Duration.Microseconds())
	return res, nil
}

// endRound closes the sessions, best-effort.
func (rt *Router) endRound(session uint64, slots []int) {
	rt.fanout(slots, func(i, slot int) error {
		rt.conns[slot].End(session)
		return nil
	})
}

// fanout runs f(i, slot) concurrently over slots. It returns the first
// in-band refusal (errRefused: a healthy shard declining the call) and the
// slots whose call failed any other way — at the transport or with a
// malformed reply — in slots order (deterministic for a given failure set).
func (rt *Router) fanout(slots []int, f func(i, slot int) error) (failed []int, inBand error) {
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	for i, slot := range slots {
		wg.Add(1)
		go func(i, slot int) {
			defer wg.Done()
			errs[i] = f(i, slot)
		}(i, slot)
	}
	wg.Wait()
	for i, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, errRefused):
			failed = append(failed, slots[i])
		case inBand == nil:
			inBand = err
		}
	}
	return failed, inBand
}

// subtract returns slots minus drop, preserving order.
func subtract(slots, drop []int) []int {
	out := slots[:0:len(slots)]
	for _, s := range slots {
		dead := false
		for _, d := range drop {
			if s == d {
				dead = true
				break
			}
		}
		if !dead {
			out = append(out, s)
		}
	}
	return out
}
