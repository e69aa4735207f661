package endpoint

import "repro/internal/resilience"

// Source is one member of a federation: a named Client plus the metadata
// the routing layer selects and orders by. It is deliberately a plain
// value — the federation layer owns scheduling and stats; a Source only
// describes where a query could go and what sending it there costs.
type Source struct {
	// Name labels the source in stats and error messages; defaults to URL.
	Name string
	// URL is the endpoint URL — the key under which the registry and the
	// document store know this source, so the federation layer can look up
	// its extracted index.
	URL string
	// Client answers queries for this source.
	Client Client
	// Cost is the virtual cost model used by cost-ordered selection.
	// The zero value sorts as free; use DefaultCost for a realistic one.
	Cost CostModel
	// Up optionally probes availability before fan-out; nil means assumed
	// up. A Remote's Up method fits directly.
	Up func() bool
	// Breaker, when set, is the source's circuit breaker: the federation
	// layer consults it before fan-out (a tripped source costs zero
	// requests) and records stream outcomes into it; the scheduler's
	// failure-recording path shares the same breaker, so extraction
	// failures trip the one federation queries consult. Nil means no
	// breaking — every call is admitted.
	Breaker *resilience.Breaker
	// Hedge, when set, learns the source's open-to-first-row latencies and
	// times hedged second opens by them. Share one per URL for the life of
	// the process, like Breaker: what one federated query observed times
	// the next one's hedge. Nil learns nothing; hedges wait out the seed.
	Hedge *resilience.HedgeDelay
}

// NewSource builds a source with the zero cost model and no availability
// probe; name defaults to url.
func NewSource(name, url string, c Client) *Source {
	if name == "" {
		name = url
	}
	return &Source{Name: name, URL: url, Client: c}
}

// Available reports whether the source is currently believed reachable.
func (s *Source) Available() bool {
	return s.Up == nil || s.Up()
}

// Label returns the display name, falling back to the URL.
func (s *Source) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return s.URL
}
