package front

import (
	"errors"
	"fmt"

	"influmax/internal/graph"
	"influmax/internal/imm"
)

// Overrides are the optional sketch-configuration fields of a query body.
// The single-process server answers from the sketch they name (sampling
// it on first use); a front that serves one configuration — dynamic mode,
// the router — refuses them with Fixed.
type Overrides struct {
	Epsilon *float64 `json:"epsilon,omitempty"`
	Model   *string  `json:"model,omitempty"`
	Seed    *uint64  `json:"seed,omitempty"`
}

// Fixed refuses any override on a front that serves one sketch
// configuration; what names that front in the error.
func (o Overrides) Fixed(what string) error {
	if o.Epsilon != nil || o.Model != nil || o.Seed != nil {
		return fmt.Errorf("%s serves one sketch configuration; model/epsilon/seed overrides are not available", what)
	}
	return nil
}

// SeedsRequest is the POST /v1/seeds body. K is required; everything else
// is optional.
type SeedsRequest struct {
	K int `json:"k"`
	Overrides
	// Query-diversity fields (DESIGN.md §17). Costs (per-vertex, length n)
	// with Budget select cost-aware greedy (Budget alone implies unit
	// costs); Audience restricts coverage to samples rooted in it; Blocked
	// excludes a rival's seeds and their coverage. An absent field takes
	// the front's default; an explicit empty value clears it.
	Costs    []float64       `json:"costs,omitempty"`
	Budget   *float64        `json:"budget,omitempty"`
	Audience *[]graph.Vertex `json:"audience,omitempty"`
	Blocked  *[]graph.Vertex `json:"blocked,omitempty"`
	// Stream asks the router for NDJSON partial results, one line per
	// committed seed; the single-process server always answers in one
	// document.
	Stream bool `json:"stream,omitempty"`
}

// Query resolves the request into a validated query over n vertices: k
// must lie in [1, kMax], absent shape fields take def's, and a query that
// is not plain must pass imm.Query.Validate.
func (r *SeedsRequest) Query(def imm.Query, kMax, n int) (imm.Query, error) {
	if r.K < 1 || r.K > kMax {
		return imm.Query{}, fmt.Errorf("k = %d, want 1 <= k <= kMax = %d", r.K, kMax)
	}
	q := imm.Query{K: r.K, Costs: r.Costs, Budget: def.Budget, Audience: def.Audience, Blocked: def.Blocked}
	if r.Budget != nil {
		q.Budget = *r.Budget
	}
	if r.Audience != nil {
		q.Audience = *r.Audience
	}
	if r.Blocked != nil {
		q.Blocked = *r.Blocked
	}
	if !q.Plain() {
		if err := q.Validate(n); err != nil {
			return imm.Query{}, err
		}
	}
	return q, nil
}

// SpreadRequest is the POST /v1/spread body: estimate the influence of a
// caller-supplied seed set, optionally restricted to samples rooted in an
// audience.
type SpreadRequest struct {
	Seeds    []graph.Vertex `json:"seeds"`
	Audience []graph.Vertex `json:"audience,omitempty"`
	Overrides
}

// Validate checks the seed set and the audience against n vertices.
func (r *SpreadRequest) Validate(n int) error {
	if len(r.Seeds) == 0 {
		return errors.New("spread needs at least one seed")
	}
	for _, v := range r.Seeds {
		if int(v) >= n {
			return fmt.Errorf("seed vertex %d out of range (n = %d)", v, n)
		}
	}
	for _, v := range r.Audience {
		if int(v) >= n {
			return fmt.Errorf("audience vertex %d out of range (n = %d)", v, n)
		}
	}
	return nil
}
