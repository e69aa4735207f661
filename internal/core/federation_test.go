package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/federation"
	"repro/internal/registry"
	"repro/internal/sparql"
	"repro/internal/synth"
)

type countingClient struct {
	inner endpoint.Client
	calls *atomic.Int32
}

func (c countingClient) Query(ctx context.Context, query string) (*sparql.Result, error) {
	c.calls.Add(1)
	return c.inner.Query(ctx, query)
}

func (c countingClient) Stream(ctx context.Context, query string) (*sparql.RowSeq, error) {
	c.calls.Add(1)
	return endpoint.Stream(ctx, c.inner, query)
}

// fedTool registers three class-partitioned endpoints and processes each,
// so the docstore holds a per-endpoint extraction index.
func fedTool(t *testing.T) (*HBOLD, []string, []*atomic.Int32) {
	t.Helper()
	tool := New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	parts := synth.PartitionByClass(synth.Scholarly(1), 3)
	var urls []string
	var calls []*atomic.Int32
	for i, p := range parts {
		u := fmt.Sprintf("http://fedcore%d.example.org/sparql", i)
		urls = append(urls, u)
		n := &atomic.Int32{}
		calls = append(calls, n)
		tool.Registry.Add(registry.Entry{URL: u, Title: fmt.Sprintf("part %d", i), AddedAt: clock.Epoch})
		tool.Connect(u, countingClient{inner: endpoint.LocalClient{Store: p}, calls: n})
		if err := tool.Process(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range calls {
		n.Store(0) // discard extraction traffic
	}
	return tool, urls, calls
}

// TestCoreFederationOverRegistry: the tool builds a federation over its
// connected endpoints, each carrying the URL's shared breaker and hedge
// tracker, and IndexPrune keeps a class query away from the partitions
// whose published vocabulary lacks the class.
func TestCoreFederationOverRegistry(t *testing.T) {
	tool, urls, calls := fedTool(t)
	fed, err := tool.Federation(nil, federation.IndexPrune)
	if err != nil {
		t.Fatal(err)
	}
	srcs := fed.Sources()
	if len(srcs) != 3 {
		t.Fatalf("federation over %d sources, want 3", len(srcs))
	}
	for _, s := range srcs {
		if s.Breaker == nil || s.Hedge == nil {
			t.Fatalf("source %s lacks its process-wide breaker or hedge tracker", s.URL)
		}
		if s.Name == s.URL {
			t.Fatalf("source %s did not pick up its registry title", s.URL)
		}
	}

	// find a class exclusive to one endpoint via the stored indexes
	var classIRI, home string
	for _, u := range urls {
		ix, err := tool.Index(u)
		if err != nil {
			t.Fatal(err)
		}
	scan:
		for _, ci := range ix.Classes {
			for _, v := range urls {
				if v == u {
					continue
				}
				other, err := tool.Index(v)
				if err != nil {
					t.Fatal(err)
				}
				if other.Vocabulary().HasClass(ci.IRI) {
					continue scan
				}
			}
			classIRI, home = ci.IRI, u
			break
		}
		if classIRI != "" {
			break
		}
	}
	if classIRI == "" {
		t.Fatal("no endpoint-exclusive class in fixture")
	}

	res, err := fed.Query(context.Background(), fmt.Sprintf(`SELECT ?s WHERE { ?s a <%s> }`, classIRI))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows for a class the home endpoint holds")
	}
	for i, u := range urls {
		want := int32(0)
		if u == home {
			want = 1
		}
		if got := calls[i].Load(); got != want {
			t.Fatalf("%s received %d requests, want %d", u, got, want)
		}
	}
}

// TestCoreFederationExplicitSubsetAndErrors.
func TestCoreFederationExplicitSubset(t *testing.T) {
	tool, urls, calls := fedTool(t)
	fed, err := tool.Federation(urls[:2], federation.All)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Query(context.Background(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if calls[0].Load() != 1 || calls[1].Load() != 1 || calls[2].Load() != 0 {
		t.Fatalf("calls = %d,%d,%d; want 1,1,0", calls[0].Load(), calls[1].Load(), calls[2].Load())
	}
	if _, err := tool.Federation([]string{"http://unknown.example.org/sparql"}, federation.All); err == nil {
		t.Fatal("federating over an unconnected endpoint did not error")
	}
	empty := New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	if _, err := empty.Federation(nil, federation.All); err == nil {
		t.Fatal("federating with no connected endpoints did not error")
	}
}

// TestFederationSourceDescribesWhatAnswers: a Remote's name, cost model
// and availability probe describe the remote, so a source carries them
// only while the dataset's queries are forwarded to it — before the first
// refresh has committed an index over the replica, not after.
func TestFederationSourceDescribesWhatAnswers(t *testing.T) {
	tool := New(docstore.MustOpenMem(), clock.NewSim(clock.Epoch))
	tool.CorpusDir = t.TempDir()
	t.Cleanup(tool.Close)
	url := "http://remote.example.org/sparql"
	remote := endpoint.NewRemote("the remote", url, synth.Scholarly(1), nil, nil, tool.Clock)
	tool.Connect(url, remote)
	source := func() *endpoint.Source {
		fed, err := tool.Federation(nil, federation.All)
		if err != nil {
			t.Fatal(err)
		}
		if len(fed.Sources()) != 1 {
			t.Fatalf("federation over %d sources, want 1", len(fed.Sources()))
		}
		return fed.Sources()[0]
	}
	if s := source(); s.Client != endpoint.Client(remote) || s.Name != remote.Name || s.Up == nil {
		t.Fatalf("before the first refresh the source is %+v, want the remote itself", s)
	}
	if err := tool.Process(url); err != nil {
		t.Fatal(err)
	}
	s := source()
	if _, local := s.Client.(endpoint.LocalClient); !local || s.Up != nil || s.Name == remote.Name {
		t.Fatalf("with the replica answering the source is %+v, want nothing of the remote's", s)
	}
}
