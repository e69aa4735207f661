package main

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"strings"
	"testing"
	"time"
)

// testInstances keeps the self-tests' sparqld corpus small (≈ 4 k triples).
const testInstances = 500

// testPools memoizes the two pools (serve, sparqld): building one runs
// every pooled query through the oracle.
var testPools = map[bool]*pool{}

func testPool(t *testing.T, w *workload) *pool {
	t.Helper()
	if p := testPools[w.serve]; p != nil {
		return p
	}
	p := buildPool(w.datasets(config{instances: testInstances}), w.serve)
	if err := p.expectAll(); err != nil {
		t.Fatal(err)
	}
	testPools[w.serve] = p
	return p
}

// seqOps is how far the determinism test follows a sequence. (The disk
// workload's writer builds a megabyte of INSERT DATA every third op.)
const seqOps = 60

// Same seed, same sequence; another seed or another client, another one.
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		p := testPool(t, w)
		for i, m := range w.roles {
			a := sequenceHash(p, m, 7, i, seqOps)
			if b := sequenceHash(p, m, 7, i, seqOps); a != b {
				t.Errorf("%s role %d: seed 7 gave two different op sequences", w.name, i)
			}
			if b := sequenceHash(p, m, 8, i, seqOps); a == b {
				t.Errorf("%s role %d: seeds 7 and 8 gave the same op sequence", w.name, i)
			}
			if b := sequenceHash(p, m, 7, i+len(w.roles), seqOps); a == b {
				t.Errorf("%s role %d: two clients of the role gave the same op sequence", w.name, i)
			}
		}
	}
}

// Every 100 consecutive ops hold exactly the mix's proportions.
func TestGeneratorDealsExactMix(t *testing.T) {
	for _, w := range workloads {
		for i, m := range w.roles {
			g := newGenerator(testPool(t, w), m, 3, i)
			for block := 0; block < 2; block++ {
				var got mix
				for n := 0; n < 100; n++ {
					k := g.next().kind
					if k == kUpdWhere {
						k = kUpdSmall // a WHERE retype takes a small-update slot
					}
					got[k]++
				}
				if got != m {
					t.Fatalf("%s role %d, block %d dealt %v, the mix is %v", w.name, i, block, got, m)
				}
			}
		}
	}
}

// writerRole returns the index and mix of the workload's role that updates.
func writerRole(t *testing.T, w *workload) (int, mix) {
	t.Helper()
	for i, m := range w.roles {
		if m[kUpdSmall]+m[kUpdBulk] > 0 {
			return i, m
		}
	}
	t.Fatalf("%s has no role that updates", w.name)
	return 0, mix{}
}

// Updates are insert-then-later-delete: however long a client runs, the
// triples it has live stay under a fixed ceiling, so corpus size — and
// with it per-op cost — does not drift with run length.
func TestUpdateGeneratorIsStationary(t *testing.T) {
	for _, name := range []string{"serve_mixed", "sparql_disk_rw"} {
		w := workloadByName(name)
		role, m := writerRole(t, w)
		g := newGenerator(testPool(t, w), m, 11, role)
		ceiling := (smallLiveTarget*smallSubjects + bulkLiveTarget*bulkSubjects) * triplesPerSubj
		inserted, deleted, peak := 0, 0, 0
		for updates := 0; updates < 120; {
			o := g.next()
			if o.u == nil {
				continue
			}
			updates++
			inserted += o.u.added
			deleted += o.u.removed
			if live := g.liveTriples(); live > peak {
				peak = live
			}
			if live := g.liveTriples(); live != inserted-deleted {
				t.Fatalf("%s: generator says %d live triples, acknowledged deltas say %d", name, live, inserted-deleted)
			}
		}
		if inserted == 0 || deleted == 0 {
			t.Fatalf("%s: %d inserted, %d deleted", name, inserted, deleted)
		}
		if peak > ceiling {
			t.Errorf("%s: %d triples live at once, ceiling is %d", name, peak, ceiling)
		}
		if inserted-deleted > ceiling {
			t.Errorf("%s: %d triples still live after 120 updates", name, inserted-deleted)
		}
	}
}

// Writers stay inside their reserved namespace and never add a predicate
// or a class, which is what keeps the checked reads determinate.
func TestWritersStayReserved(t *testing.T) {
	w := workloadByName("sparql_disk_rw")
	p := testPool(t, w)
	d := p.datasets[0]
	known := map[string]bool{}
	for _, c := range d.classes {
		known[iri(c.iri)] = true
		for _, dp := range c.dataProps {
			known[iri(dp)] = true
		}
	}
	role, m := writerRole(t, w)
	g := newGenerator(p, m, 5, role)
	for i := 0; i < 100; i++ {
		o := g.next()
		if o.u == nil || o.kind == kUpdWhere {
			continue
		}
		for _, tr := range o.u.b.triples {
			if !strings.HasPrefix(tr[0], "<"+reservedNS) {
				t.Fatalf("writer subject %s is outside %s", tr[0], reservedNS)
			}
			if strings.HasPrefix(tr[2], "<") {
				if !known[tr[2]] {
					t.Fatalf("writer introduced class %s", tr[2])
				}
			} else if !known[tr[1]] || !strings.HasPrefix(tr[2], `"`+writerLiteralPrefix) {
				t.Fatalf("writer triple %v uses an unknown predicate or an unmarked literal", tr)
			}
		}
	}
}

// The traced replay deals each role's own sequence, and shares time
// between the roles the way closed-loop clients do.
func TestReplayFollowsTheRoles(t *testing.T) {
	w := workloadByName("sparql_disk_rw")
	r := &run{w: w, cfg: config{seed: 9, clients: 2}, pool: testPool(t, w)}
	seq := r.newReplaySeq()
	want := []*generator{newGenerator(r.pool, w.roles[0], 9, 0), newGenerator(r.pool, w.roles[1], 9, 1)}
	reads, updates := 0, 0
	for i := 0; i < 220; i++ {
		o := seq.next()
		role, cost := 0, time.Millisecond
		if o.u != nil {
			role, cost = 1, 10*time.Millisecond
			updates++
		} else {
			reads++
		}
		seq.took(cost)
		if id := want[role].next().id(); o.id() != id {
			t.Fatalf("op %d is not the next op of role %d's first client", i, role)
		}
	}
	// a reader whose ops cost a tenth of the writer's gets through ten times as many
	if reads != 200 || updates != 20 {
		t.Errorf("220 replayed ops held %d reads and %d updates, want 200 and 20", reads, updates)
	}
}

// BENCHMARK.json and the code's catalogue name the same workloads and
// metrics; the driver reads the file, the harness prints from the code.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, harness has %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		f := doc.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better || f.Bound != m.bound {
			t.Errorf("end-to-end %d: file has %+v, harness has %+v", i, f, m)
		}
	}
	layers := perLayer()
	if len(doc.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(doc.PerLayer), len(layers))
	}
	seen := map[string]bool{}
	for i, m := range layers {
		f := doc.PerLayer[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
			t.Errorf("per-layer %d: file has %+v, harness has %+v", i, f, m)
		}
		if seen[m.name] || len(m.name) > 64 {
			t.Errorf("per-layer name %q is repeated or too long", m.name)
		}
		seen[m.name] = true
	}
}

// liveTriples is the number of triples this client has inserted and not
// yet deleted — the quantity the stationary-size invariant bounds.
func (g *generator) liveTriples() int {
	n := 0
	for _, b := range g.smallLive {
		n += len(b.triples)
	}
	for _, b := range g.bulkLive {
		n += len(b.triples)
	}
	return n
}

// sequenceHash folds the ids of the first n ops of a fresh generator.
func sequenceHash(p *pool, m mix, seed int64, client, n int) uint64 {
	g := newGenerator(p, m, seed, client)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		h.Write([]byte(g.next().id()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
