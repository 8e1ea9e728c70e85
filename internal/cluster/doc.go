// Package cluster turns a fleet of immserve replicas into one logical
// seed-serving system: each replica owns a shard of the theta RRR samples
// (a per-rank slice, exactly what one rank of internal/dist would hold)
// and a thin router runs the sample-partitioned greedy protocol across
// them — rounds of merged coverage counts and purge decrements, the
// internal/dist Algorithm 4 re-hosted behind a shard API.
//
// The shard API has four operations (info, start-session, purge, end) with
// one binary wire codec spoken over two interchangeable transports: HTTP
// (HTTPConn against a shard-mode immserve, the production path) and an
// mpi.Comm (CommConn/ServeComm, which plugs straight into mpi.WithFaults
// so replica death and failover are testable deterministically). Shards
// bootstrap from a v3 snapshot wrapped in a small shard header — written
// locally, or streamed from a peer via GET /v1/snapshot.
//
// Because sampling runs in imm.PerSample mode, the union of the shards'
// samples is the single-process sample set, and the router has no greedy
// loop of its own: the fleet is one coverage source of imm.Greedy, the
// engine that also answers single-process queries — so a fleet answers
// POST /v1/seeds byte-identically to one immserve holding the whole
// sketch. A replica that dies mid-query surfaces as a typed
// mpi.RankFailedError within the configured net timeout, and one whose
// reply does not decode is treated alike; the engine
// restarts on the survivors, replays the seeds already chosen, and the
// router serves a degraded result naming the failed shards. A shard that
// evicted the query's session under load is not failed: the query
// restarts on the same shards.
//
// RouterServer is the fleet's HTTP front. It embeds the same
// internal/front gate as a single immserve (admission, decoding, drain,
// metrics, under router/* instruments) and adds only NDJSON streaming,
// the degraded/failedShards fields and the eviction give-up's 503. A
// fleet serves one sketch configuration, so requests that override the
// model, epsilon or seed are refused with 400. DESIGN.md §16 and §18 are
// the normative spec.
package cluster
