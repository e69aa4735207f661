package update_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/update"
)

// faulty counts the writes that reach a backend and, on the k-th, either
// fails it or lets it through and kills the request's context — a client
// that goes away between two operations.
type faulty struct {
	store.Backend
	writes, failAt, cancelAt int
	cancel                   context.CancelFunc
}

var errInjected = errors.New("injected write failure")

func (f *faulty) write(do func(rdf.Triple) (bool, error), t rdf.Triple) (bool, error) {
	f.writes++
	if f.writes == f.failAt {
		return false, errInjected
	}
	ok, err := do(t)
	if f.writes == f.cancelAt {
		f.cancel()
	}
	return ok, err
}

func (f *faulty) Insert(t rdf.Triple) (bool, error) { return f.write(f.Backend.Insert, t) }
func (f *faulty) Delete(t rdf.Triple) (bool, error) { return f.write(f.Backend.Delete, t) }

func allTriples(t *testing.T, be store.Backend) []string {
	t.Helper()
	res, err := sparql.Exec(be, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	return canonRows(res)
}

// TestFailedRequestIsUndone: a request that fails after some of its
// operations landed — they are staged, and the WHERE of the second
// operation commits the staging, on either tier — leaves the
// store exactly as an untouched twin: same triples, same Len, and the
// next request nets the same delta. On the parent the first operation's
// insert survived the error (memory) or was committed by the next
// request's Flush (disk), behind the back of the index derived from
// successful deltas.
func TestFailedRequestIsUndone(t *testing.T) {
	// seven writes: 1 insert; 2 deletes + 2 inserts; 1 delete; 1 insert
	const request = `PREFIX ex: <http://ex/>
		INSERT DATA { ex:dave ex:knows ex:alice } ;
		DELETE { ?s ex:age ?a } INSERT { ?s ex:years ?a } WHERE { ?s ex:age ?a } ;
		DELETE DATA { ex:alice ex:knows ex:bob } ;
		INSERT DATA { ex:erin ex:knows ex:dave }`
	const writes = 7
	const next = `PREFIX ex: <http://ex/>
		DELETE DATA { ex:bob ex:age 29 } ; INSERT DATA { ex:dave ex:knows ex:alice . ex:bob ex:years 29 }`
	for k := 1; k <= writes; k++ {
		for _, mode := range []string{"write fails", "context dies"} {
			if mode == "context dies" && k == writes {
				continue // nothing left to notice the dead context: the request succeeds
			}
			twins := backends(t)
			for name, be := range backends(t) {
				t.Run(fmt.Sprintf("%s/%s at write %d", name, mode, k), func(t *testing.T) {
					twin := twins[name]
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					f := &faulty{Backend: be, cancel: cancel}
					wantErr := errInjected
					if mode == "write fails" {
						f.failAt = k
					} else {
						f.cancelAt, wantErr = k, context.Canceled
					}
					if _, err := update.ApplyText(ctx, f, request); !errors.Is(err, wantErr) {
						t.Fatalf("err = %v, want %v", err, wantErr)
					}
					if got, want := allTriples(t, be), allTriples(t, twin); !reflect.DeepEqual(got, want) {
						t.Fatalf("a failed request left its mark:\n got %v\nwant %v", got, want)
					}
					if be.Len() != twin.Len() {
						t.Fatalf("Len() = %d after a failed request, want %d", be.Len(), twin.Len())
					}
					// whatever the failed request staged must not ride the
					// next request's commit either
					if got, want := apply(t, be, next), apply(t, twin, next); !reflect.DeepEqual(got, want) {
						t.Fatalf("the next request's delta = %+v, want %+v", got, want)
					}
					if got, want := allTriples(t, be), allTriples(t, twin); !reflect.DeepEqual(got, want) {
						t.Fatalf("after the next request:\n got %v\nwant %v", got, want)
					}
				})
			}
		}
	}
}
