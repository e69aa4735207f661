package sparql_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/sparql"
	"repro/internal/synth"
)

// noGroupBy is an endpoint that refuses GROUP BY, which sends the
// extractor down its mixed strategy.
type noGroupBy struct{ lc endpoint.LocalClient }

func (c noGroupBy) Query(ctx context.Context, q string) (*sparql.Result, error) {
	if strings.Contains(q, "GROUP BY") {
		return nil, errors.New("GROUP BY not supported")
	}
	return c.lc.Query(ctx, q)
}

// TestExtractionFiltersReadNoTerms counts the terms the paper's index
// extraction (§3.1) materializes from the store, over the Scholarly LD
// (19,856 triples, 15 classes). Its per-class queries filter on
// `FILTER isLiteral(?o)`: a kind test, which the executor decides on the
// store's term kinds and applies to a run whole. Evaluated through a
// Binding per row, the filter materialized a term per candidate object:
// the aggregate strategy made 19,961 Term calls (105 now), the mixed one
// 75,649. Its `ORDER BY ?p` over DISTINCT pages then still sorted every
// row before it deduplicated (48,133 calls); an ORDER BY that reads only
// projected variables now dedupes as rows arrive and sorts the distinct
// ones (210 calls). The Index each strategy
// extracts is pinned by the SHA-256 of its JSON as the row-at-a-time
// evaluator extracted it.
func TestExtractionFiltersReadNoTerms(t *testing.T) {
	st := synth.Scholarly(1)
	at := time.Date(2020, 3, 30, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		strategy string
		client   func(endpoint.LocalClient) endpoint.Client
		maxTerms int
		index    string
	}{
		{"aggregate", func(lc endpoint.LocalClient) endpoint.Client { return lc }, 200,
			"07e852eeca4f27c05caefc1e4103bf86c9447aa8c3f81500124bd7e52601e0b9"},
		{"mixed", func(lc endpoint.LocalClient) endpoint.Client { return noGroupBy{lc} }, 1000,
			"7ce971df3281ab15a2750cb639ca663a6fea50df9dba99722c73c3ab33ffb231"},
	} {
		terms := 0
		client := c.client(endpoint.LocalClient{Store: counted{Queryable: st, terms: &terms}})
		ix, err := extraction.New().Extract(context.Background(), client, "http://scholarly.example.org/sparql", at)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Strategy != c.strategy {
			t.Fatalf("extracted with %s, want %s", ix.Strategy, c.strategy)
		}
		t.Logf("%s: %d Term calls", c.strategy, terms)
		if terms > c.maxTerms {
			t.Errorf("%s extraction materialized %d terms, want at most %d", c.strategy, terms, c.maxTerms)
		}
		raw, err := json.Marshal(ix)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(raw)); sum != c.index {
			t.Errorf("%s extraction: index digest %s, want %s", c.strategy, sum, c.index)
		}
	}
}
