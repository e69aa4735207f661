package sparql_test

// ORDER BY … LIMIT prunes in ID space: the top-k heap publishes its
// bound, and a run whose key's sort prefix is strictly past it is dropped
// before its key is built. These tests hold the pruned executor to the
// unpruned one and to the reference evaluator, and count the terms it
// materializes.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/sparql/reference"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/synth"
)

// counted is a store whose reads count the Term calls the executor
// makes; with noPrefix its readers answer every SortPrefix with 0, the
// prefix that decides nothing, so the same executor prunes nothing.
type counted struct {
	store.Queryable
	terms    *int
	noPrefix bool
}

func (s counted) Snapshot() store.ReaderAPI {
	return countedReader{s.Queryable.Snapshot(), s.terms, s.noPrefix}
}

type countedReader struct {
	store.ReaderAPI
	terms    *int
	noPrefix bool
}

func (r countedReader) Term(id store.ID) rdf.Term {
	*r.terms++
	return r.ReaderAPI.Term(id)
}

func (r countedReader) SortPrefix(id store.ID) uint64 {
	if r.noPrefix {
		return 0
	}
	return r.ReaderAPI.SortPrefix(id)
}

func (r countedReader) Release() {
	if rd, ok := r.ReaderAPI.(interface{ Release() }); ok {
		rd.Release()
	}
}

const topkNS = "http://topk.example.org/onto#"

// topkStore is a small synth corpus — class 0's instances carry attr0
// and attr4, one distinct string each — plus a numeric attribute over
// the same instances that mixes integers, decimals and doubles, repeats
// values, and holds -0, ±INF and NaN.
func topkStore() *store.Store {
	st := synth.Generate(synth.Spec{Name: "topk", Classes: 4, Instances: 2400, ObjectProps: 4, DataProps: 8, LinkFactor: 1, Seed: 3})
	num := rdf.NewIRI(topkNS + "num")
	odd := []rdf.Term{
		rdf.NewTypedLiteral("-0", rdf.XSDDouble), rdf.NewTypedLiteral("INF", rdf.XSDDouble),
		rdf.NewTypedLiteral("-INF", rdf.XSDFloat), rdf.NewTypedLiteral("NaN", rdf.XSDDouble),
	}
	i := 0
	st.Match(store.Pattern{P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(topkNS + "Class0")}, func(tr rdf.Triple) bool {
		var v rdf.Term
		switch {
		case i < len(odd):
			v = odd[i]
		case i%3 == 0:
			v = rdf.NewInteger(int64((i * 7919) % 997))
		case i%3 == 1:
			v = rdf.NewDecimal(float64((i*104729)%1009) / 4)
		default:
			v = rdf.NewDouble(-float64((i * 31) % 211))
		}
		st.AddSPO(tr.S, num, v)
		i++
		return true
	})
	st.Flush()
	return st
}

// TestTopKPrunesInIDSpace: on both tiers, every top-k shape answers
// exactly what the unpruned executor answers, row for row and in order,
// and agrees with the reference evaluator. On the memory tier, where
// SortPrefix is a slice read, the work gate holds: unpruned, the executor
// builds one key (one Term call) per run of the pattern; pruned, it builds
// exactly the keys a heap has to see — the first k, every run that
// displaces the worst retained row, and every run whose prefix ties the
// bound — and then projects its window.
func TestTopKPrunesInIDSpace(t *testing.T) {
	mem := topkStore()
	ds, err := disk.Open(t.TempDir(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.CopyFrom(mem.Reader()); err != nil {
		t.Fatal(err)
	}
	// the memory tier keeps the prefix per term, the disk tier derives it
	// from the term: the two agree ID for ID
	mrd, drd := mem.Reader(), ds.Snapshot()
	for id := store.ID(1); id <= mrd.MaxID(); id++ {
		if m, d := mrd.SortPrefix(id), drd.SortPrefix(id); m != d || m != rdf.SortPrefix(mrd.Term(id)) {
			t.Fatalf("SortPrefix(%d) of %v: memory %#x, disk %#x", id, mrd.Term(id), m, d)
		}
	}
	if rd, ok := drd.(interface{ Release() }); ok {
		rd.Release()
	}
	attr := func(n int) string { return fmt.Sprintf("<%sattr%d>", topkNS, n) }
	numP, class0 := "<"+topkNS+"num>", "<"+topkNS+"Class0>"
	type shape struct {
		name, text string
		gated      bool // one pattern, one condition: the work gate applies
	}
	shapes := []shape{
		{"asc", "SELECT ?s ?v WHERE { ?s " + attr(0) + " ?v } ORDER BY ?v LIMIT 10", true},
		{"desc", "SELECT ?s ?v WHERE { ?s " + attr(0) + " ?v } ORDER BY DESC(?v) LIMIT 10", true},
		{"offset", "SELECT ?s ?v WHERE { ?s " + attr(0) + " ?v } ORDER BY ?v LIMIT 5 OFFSET 20", true},
		{"numeric", "SELECT ?s ?v WHERE { ?s " + numP + " ?v } ORDER BY ?v LIMIT 10", true},
		{"numeric-desc", "SELECT ?s ?v WHERE { ?s " + numP + " ?v } ORDER BY DESC(?v) LIMIT 12 OFFSET 3", true},
		{"second-condition", "SELECT ?s ?v WHERE { ?s " + attr(0) + " ?v } ORDER BY ?v DESC(?s) LIMIT 10", false},
		{"numeric-second-condition", "SELECT ?s ?v WHERE { ?s " + numP + " ?v } ORDER BY DESC(?v) ?s LIMIT 10", false},
		// ?v is bound by the first pattern's run, above the last pattern
		{"join-bound-above", "SELECT ?s ?v ?w WHERE { ?s " + attr(0) + " ?v . ?s " + attr(4) + " ?w } ORDER BY ?v LIMIT 10", false},
		// ?v is the varying position of a run at a non-last level
		{"join-varying-above", "SELECT ?s ?v ?w WHERE { ?s a " + class0 + " . ?s " + numP + " ?v . ?s " + attr(4) + " ?w } ORDER BY DESC(?v) LIMIT 10", false},
		// ?v is the varying position of the last pattern's run: the sink
		// takes the run apart and tests each row
		{"sink", "SELECT ?s ?v WHERE { ?s a " + class0 + " . ?s " + numP + " ?v } ORDER BY ?v LIMIT 10", false},
		// an alias is ordered on: only the sink can test it
		{"alias", "SELECT ?s (STR(?x) AS ?v) WHERE { ?s " + attr(0) + " ?x } ORDER BY DESC(?v) LIMIT 10", false},
		// what must not prune. An OPTIONAL's inner group: a dropped inner
		// row would leave ?s unmatched and yield it with ?w unbound, which
		// sorts first.
		{"optional", "SELECT ?s ?w WHERE { ?s a " + class0 + " OPTIONAL { ?s " + numP + " ?w . ?s " + attr(4) + " ?z } } ORDER BY ?w LIMIT 10", false},
		// A MINUS's right side, ranged once the first branch has filled
		// the heap: a dropped right row would let its ?s through unbound.
		{"minus", "SELECT ?s ?v ?z WHERE { { ?s " + numP + " ?v } UNION { ?s " + attr(4) + " ?z MINUS { ?s " + numP + " ?v } } } ORDER BY ?v LIMIT 10", false},
		// A BIND or an alias that writes the order variable over what the
		// pattern bound: the join never sees the key the sink orders by.
		{"bind-rebinds", "SELECT ?s ?v WHERE { ?s " + numP + " ?v BIND(-?v AS ?v) } ORDER BY ?v LIMIT 10", false},
		{"alias-rebinds", "SELECT ?s (-?v AS ?v) WHERE { ?s " + numP + " ?v } ORDER BY DESC(?v) LIMIT 10", false},
		{"union", "SELECT ?s ?v WHERE { { ?s " + attr(0) + " ?v } UNION { ?s " + numP + " ?v } } ORDER BY ?v LIMIT 10", false},
	}
	drain := func(t *testing.T, q *sparql.Query, st store.Queryable) *sparql.Result {
		t.Helper()
		rs, err := q.Stream(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rs.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tier := range []struct {
		name string
		st   store.Queryable
	}{{"memory", mem}, {"disk", ds}} {
		t.Run(tier.name, func(t *testing.T) {
			for _, sh := range shapes {
				q := sparql.MustParse(sh.text)
				var pruned, unpruned int
				got := drain(t, q, counted{tier.st, &pruned, false})
				want := drain(t, q, counted{tier.st, &unpruned, true})
				if len(got.Rows) == 0 {
					t.Fatalf("%s: no rows; the query is meant to produce some", sh.name)
				}
				gk, wk := rowKeysInOrder(got), rowKeysInOrder(want)
				if !slices.Equal(gk, wk) {
					t.Fatalf("%s\npruned:   %q\nunpruned: %q", sh.text, gk, wk)
				}
				ref, err := reference.Exec(q, tier.st)
				if err != nil {
					t.Fatal(err)
				}
				compareEngines(t, sh.text, q, "pruned", got, ref, false)
				if pruned > unpruned {
					t.Fatalf("%s: %d Term calls pruned, %d unpruned", sh.name, pruned, unpruned)
				}
				if !sh.gated || tier.name != "memory" {
					continue
				}
				runs, model := topkModel(t, mem, q)
				projected := len(got.Rows) * len(got.Vars)
				if unpruned != runs+projected {
					t.Fatalf("%s: unpruned executor made %d Term calls, want one per run (%d) plus the projection (%d)", sh.name, unpruned, runs, projected)
				}
				if keys := pruned - projected; keys != model {
					t.Fatalf("%s: pruned executor built %d keys; a heap has to see %d of the %d runs", sh.name, keys, model, runs)
				}
				t.Logf("%-13s Term calls: %5d unpruned, %4d pruned (%d runs, model %d)", sh.name, unpruned, pruned, runs, model)
			}
		})
	}
}

// topkModel replays q's one pattern run by run, in the order the store
// hands the runs over, through a model heap of the k best rows: it
// counts the runs (one key each, unpruned) and the runs a prefix-pruning
// heap has to build a key for — every one that arrives while the heap is
// not full or whose prefix is not strictly past the prefix of the worst
// row the heap retains.
func topkModel(t *testing.T, st *store.Store, q *sparql.Query) (runs, keys int) {
	t.Helper()
	bgp := q.Where.Elems[0].(*sparql.BGP)
	rd := st.Reader()
	pat := store.IDPattern{P: rd.Lookup(bgp.Patterns[0].P.Term)}
	k := q.Offset + q.Limit
	desc := q.OrderBy[0].Desc
	type entry struct {
		v   rdf.Term
		key sparql.OrderKey
	}
	var kept []entry // ascending under the ORDER BY, at most k
	err := rd.Runs(pat, func(rn store.Run) bool {
		runs++
		v := rd.Term(rn.O)
		if len(kept) == k {
			pw, pv := rdf.SortPrefix(kept[k-1].v), rdf.SortPrefix(v)
			if rdf.SamePrefixClass(pv, pw) && (pv < pw) == desc && pv != pw {
				return true
			}
		}
		keys++
		e := entry{v, sparql.OrderKeyOf(q.OrderBy, sparql.Binding{"v": v})}
		for range rn.IDs {
			// a later arrival with an equal key sorts after: stable
			i, _ := slices.BinarySearchFunc(kept, e, func(a, b entry) int {
				if c := sparql.CompareOrderKeys(q.OrderBy, a.key, b.key); c != 0 {
					return c
				}
				return -1
			})
			kept = slices.Insert(kept, i, e)
			kept = kept[:min(len(kept), k)]
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return runs, keys
}

// TestNaNOrders: NaN compares false under every ordering operator, and
// ORDER BY places it through the total term order, the same on the
// executor and the reference, wherever it falls in the input.
func TestNaNOrders(t *testing.T) {
	st := store.New()
	p := rdf.NewIRI("http://ex/p")
	vals := []rdf.Term{
		rdf.NewInteger(3), rdf.NewTypedLiteral("NaN", rdf.XSDDouble), rdf.NewDouble(math.Inf(-1)),
		rdf.NewDecimal(0.5), rdf.NewTypedLiteral("NaN", rdf.XSDFloat), rdf.NewInteger(-2),
	}
	for i, v := range vals {
		st.AddSPO(rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), p, v)
	}
	st.Flush()
	for _, c := range []struct {
		text string
		rows int
	}{
		{`SELECT ?s WHERE { ?s <http://ex/p> ?x FILTER(?x <= 1) }`, 3},
		{`SELECT ?s WHERE { ?s <http://ex/p> ?x FILTER(?x > 1) }`, 1},
		{`SELECT ?s WHERE { ?s <http://ex/p> ?x FILTER(!(?x >= -100)) }`, 3},
		{`SELECT ?s ?x WHERE { ?s <http://ex/p> ?x } ORDER BY ?x`, 6},
		{`SELECT ?s ?x WHERE { ?s <http://ex/p> ?x } ORDER BY DESC(?x) LIMIT 4`, 4},
	} {
		q := sparql.MustParse(c.text)
		got, err := q.Exec(st)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference.Exec(q, st)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != c.rows {
			t.Fatalf("%s: %d rows, want %d: %v", c.text, len(got.Rows), c.rows, got.Rows)
		}
		compareEngines(t, c.text, q, "exec", got, want, len(q.OrderBy) > 0)
	}
}
