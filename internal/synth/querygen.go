package synth

// Randomized SPARQL query generation over a store's extracted vocabulary
// — the query half of the differential-fuzz harness. The generator grew
// out of the sparql package's differential tests and moved here so any
// package (engines, federation, protocol) can fuzz against the same
// shape distribution. Shapes cover the pattern algebra (chains, stars,
// typed subjects, OPTIONAL/MINUS/BIND/VALUES/FILTER, nested groups) and
// the full solution-modifier surface: ORDER BY (with DESC and multi-key),
// LIMIT/OFFSET windows over ordered and unordered queries, DISTINCT, and
// every grouped shape (see grouped).

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// QueryGen produces random queries from a store's vocabulary. It is
// deterministic per seed, so a failing query reproduces from its seed
// and index.
type QueryGen struct {
	rng     *rand.Rand
	preds   []string // predicate IRIs (no rdf:type)
	classes []string // class IRIs
}

// NewQueryGen builds a generator over st's predicates and classes.
func NewQueryGen(st *store.Store, seed int64) *QueryGen {
	g := &QueryGen{rng: rand.New(rand.NewSource(seed))}
	for _, p := range st.Predicates() {
		if p.Value != rdf.RDFType {
			g.preds = append(g.preds, p.Value)
		}
	}
	for _, c := range st.Classes() {
		g.classes = append(g.classes, c.Class.Value)
	}
	return g
}

func (g *QueryGen) pred() string  { return "<" + g.preds[g.rng.Intn(len(g.preds))] + ">" }
func (g *QueryGen) class() string { return "<" + g.classes[g.rng.Intn(len(g.classes))] + ">" }

// body builds one random group graph pattern and reports how many ?vN
// variables it binds.
func (g *QueryGen) body() (string, int) {
	r := g.rng
	var pats []string
	nv := 0
	v := func(i int) string { return fmt.Sprintf("?v%d", i) }

	switch r.Intn(3) {
	case 0: // chain
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			pats = append(pats, fmt.Sprintf("%s %s %s .", v(i), g.pred(), v(i+1)))
		}
		nv = n + 1
	case 1: // star
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			pats = append(pats, fmt.Sprintf("?v0 %s %s .", g.pred(), v(i+1)))
		}
		nv = n + 1
	default: // typed subject expanding
		pats = append(pats, fmt.Sprintf("?v0 a %s .", g.class()))
		n := r.Intn(2)
		for i := 0; i < n; i++ {
			pats = append(pats, fmt.Sprintf("?v0 %s %s .", g.pred(), v(i+1)))
		}
		nv = n + 1
	}
	if r.Intn(4) == 0 { // variable predicate
		pats = append(pats, fmt.Sprintf("?v0 ?pv %s .", v(nv)))
		nv++
	}

	body := strings.Join(pats, " ")
	if r.Intn(5) == 0 {
		body += fmt.Sprintf(" OPTIONAL { ?v0 %s ?opt }", g.pred())
	}
	if r.Intn(6) == 0 {
		body += fmt.Sprintf(" MINUS { ?v0 %s ?mv }", g.pred())
	}
	if r.Intn(6) == 0 {
		body += " BIND(STR(?v0) AS ?bv)"
	}
	if r.Intn(6) == 0 {
		body += fmt.Sprintf(" VALUES ?v1 { %s %s }", g.class(), g.pred())
	}
	if r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			body += " FILTER(?v0 != ?v1)"
		case 1:
			body += ` FILTER regex(STR(?v1), "1")`
		case 2:
			body += " FILTER(STRLEN(STR(?v1)) > 12)"
		default:
			body += " FILTER(BOUND(?v1))"
		}
	}
	if r.Intn(8) == 0 {
		body += fmt.Sprintf(" { ?v0 ?anyp %s }", v(nv))
		nv++
	}
	return body, nv
}

// window appends a random LIMIT/OFFSET pair (possibly neither).
func (g *QueryGen) window() string {
	r := g.rng
	mod := ""
	if r.Intn(2) == 0 {
		mod += fmt.Sprintf(" LIMIT %d", 1+r.Intn(20))
	}
	if r.Intn(4) == 0 {
		mod += fmt.Sprintf(" OFFSET %d", r.Intn(10))
	}
	return mod
}

// grouped builds a GROUP BY/aggregate query over body. The shapes mix
// plain COUNT with SUM/MIN/MAX/AVG over an object variable — over synth
// data these hit IRIs (non-numeric → binding omitted) and literals alike
// — with DISTINCT on each of them, arithmetic over several aggregates,
// SAMPLE and GROUP_CONCAT, an expression key, a projected non-key
// variable, the one implicit group of a query without GROUP BY (over a
// class nothing has, too), HAVING on projected and unprojected
// aggregates, and ordered/windowed group output. Two engines produce
// rows in different orders, so what depends on arrival order (SAMPLE,
// GROUP_CONCAT, a non-key variable) only ever sees one value per group.
func (g *QueryGen) grouped(body string) string {
	r := g.rng
	sel, where, groupBy, order := "?c", "?v0 a ?c . "+body, " GROUP BY ?c", "?c"
	agg := "(COUNT(?v0) AS ?n)"
	switch r.Intn(12) {
	case 0:
	case 1:
		agg = "(COUNT(DISTINCT ?v0) AS ?n)"
	case 2:
		agg = "(SUM(?v1) AS ?n)"
	case 3:
		agg = "(MIN(?v1) AS ?n) (MAX(?v1) AS ?m)"
	case 4:
		agg = "(AVG(?v1) AS ?n)"
	case 5:
		agg = "(SUM(DISTINCT ?v1) AS ?n) (AVG(DISTINCT ?v1) AS ?m)"
	case 6:
		agg = "(MIN(DISTINCT ?v1) AS ?n) (MAX(DISTINCT ?v1) AS ?m)"
	case 7:
		agg = "(SUM(?v1) / COUNT(?v1) AS ?n) (COUNT(?v0) + COUNT(DISTINCT ?v1) AS ?m) (COALESCE(MIN(?opt), 0) AS ?o)"
	case 8:
		agg = `(SAMPLE(?c) AS ?n) (GROUP_CONCAT(DISTINCT STR(?c) ; SEPARATOR = "|") AS ?m)`
	case 9: // the key is not a variable, so the projection cannot name it
		sel, groupBy, order = "(MIN(STR(?c)) AS ?k)", " GROUP BY (STR(?c))", "?k"
	case 10: // ?k is not a key, but the key determines it
		sel, where = "?c ?k", where+" BIND(STR(?c) AS ?k)"
	default:
		sel, groupBy, order = "", "", ""
		if r.Intn(2) == 0 {
			where = "?v0 a <http://nothing.example/C> . " + body
		}
	}
	having := ""
	switch r.Intn(10) {
	case 0, 1:
		having = " HAVING (COUNT(?v0) > 1)"
	case 2:
		having = " HAVING (MIN(?v0) != MAX(?v0))"
	case 3:
		having = " HAVING (COUNT(?v0) = 0 || MAX(?v1) > 3)"
	}
	if order != "" && r.Intn(3) == 0 {
		having += " ORDER BY " + order + g.window()
	}
	return fmt.Sprintf("SELECT %s %s WHERE { %s }%s%s", sel, agg, where, groupBy, having)
}

// Query builds one random SELECT/ASK query from the store vocabulary.
func (g *QueryGen) Query() string {
	r := g.rng
	body, nv := g.body()
	v := func(i int) string { return fmt.Sprintf("?v%d", i) }

	if r.Intn(10) == 0 {
		return fmt.Sprintf("ASK { %s }", body)
	}
	if r.Intn(5) == 0 {
		return g.grouped(body)
	}

	sel := "*"
	if r.Intn(2) == 0 {
		k := 1 + r.Intn(nv)
		var vs []string
		for i := 0; i < k; i++ {
			vs = append(vs, v(i))
		}
		sel = strings.Join(vs, " ")
	}
	mod := ""
	if r.Intn(3) == 0 {
		sel = "DISTINCT " + sel
	}
	if r.Intn(3) == 0 {
		keys := "?v0 ?v1"
		switch r.Intn(3) {
		case 0:
			keys = "?v0"
		case 1:
			keys = "DESC(?v1) ?v0"
		}
		mod = " ORDER BY " + keys
		// windows over ordered queries exercise the top-k path; ties at
		// the cut line are compared key-aware by the harness
		mod += g.window()
	} else if r.Intn(6) == 0 {
		// a window without ORDER BY: engines may keep different rows,
		// only cardinality is comparable
		mod = g.window()
	}
	return fmt.Sprintf("SELECT %s WHERE { %s }%s", sel, body, mod)
}
