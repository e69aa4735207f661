package sparql

import (
	"testing"
)

// TestExplainRowsMatchExec is the contract the EXPLAIN surface rests on:
// the profiled execution is the real execution, so the profile's row
// counts must equal what the same query actually returns — for every
// query shape the staged pipeline covers.
func TestExplainRowsMatchExec(t *testing.T) {
	st := fixtureStore(t)
	queries := []string{
		`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person }`,
		`PREFIX ex: <http://ex/> SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:knows ?c }`,
		`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p ex:age ?a FILTER(?a > 28) }`,
		`PREFIX ex: <http://ex/> SELECT ?p ?e WHERE { ?p a ex:Person OPTIONAL { ?e ex:organizedBy ?p } }`,
		`PREFIX ex: <http://ex/> SELECT ?x WHERE { { ?x a ex:Person } UNION { ?x a ex:Event } }`,
		`PREFIX ex: <http://ex/> SELECT DISTINCT ?o WHERE { ?s ex:knows ?o }`,
		`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p ex:age ?a } ORDER BY ?a`,
		`PREFIX ex: <http://ex/> SELECT ?p WHERE { ?p a ex:Person } LIMIT 2`,
		`PREFIX ex: <http://ex/> SELECT (COUNT(?p) AS ?n) WHERE { ?p a ex:Person }`,
	}
	for _, text := range queries {
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%s): %v", text, err)
		}
		res, err := q.Exec(st)
		if err != nil {
			t.Fatalf("Exec(%s): %v", text, err)
		}
		// Explain must not disturb later executions; run it between two
		// real ones and compare all three
		exp, err := q.Explain(st)
		if err != nil {
			t.Fatalf("Explain(%s): %v", text, err)
		}
		res2, err := q.Exec(st)
		if err != nil {
			t.Fatalf("re-Exec(%s): %v", text, err)
		}
		if len(res2.Rows) != len(res.Rows) {
			t.Errorf("%s: Exec after Explain returned %d rows, first Exec %d", text, len(res2.Rows), len(res.Rows))
		}
		if exp.Rows != len(res.Rows) {
			t.Errorf("%s: explain rows = %d, exec rows = %d", text, exp.Rows, len(res.Rows))
		}
		if exp.Engine != "id-space" {
			t.Errorf("%s: engine = %s, want id-space", text, exp.Engine)
		}
		if exp.Plan == nil {
			t.Errorf("%s: no plan tree", text)
			continue
		}
		if len(exp.Stages) == 0 {
			t.Errorf("%s: no stages", text)
			continue
		}
		last := exp.Stages[len(exp.Stages)-1]
		if last.RowsOut != int64(exp.Rows) {
			t.Errorf("%s: last stage %q rowsOut = %d, want %d", text, last.Name, last.RowsOut, exp.Rows)
		}
		if exp.Stages[0].Name != "where" {
			t.Errorf("%s: first stage = %q, want where", text, exp.Stages[0].Name)
		}
	}
}

// TestExplainAsk checks the non-SELECT forms report their row semantics.
func TestExplainAsk(t *testing.T) {
	st := fixtureStore(t)
	q, err := Parse(`PREFIX ex: <http://ex/> ASK { ex:alice ex:knows ex:bob }`)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := q.Explain(st)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Form != "ASK" || exp.Rows != 1 {
		t.Fatalf("form = %s rows = %d, want ASK 1", exp.Form, exp.Rows)
	}
}

// TestExplainPlanAnnotations checks that the plan tree carries per-node
// traffic: a two-pattern join must show the greedy order and the second
// pattern seeing the first one's output as input.
func TestExplainPlanAnnotations(t *testing.T) {
	st := fixtureStore(t)
	q, err := Parse(`PREFIX ex: <http://ex/> SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:age ?g }`)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := q.Explain(st)
	if err != nil {
		t.Fatal(err)
	}
	var pats []*ExplainNode
	var walk func(n *ExplainNode)
	walk = func(n *ExplainNode) {
		if n.Kind == "pattern" {
			pats = append(pats, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(exp.Plan)
	if len(pats) != 2 {
		t.Fatalf("patterns in plan = %d, want 2", len(pats))
	}
	orders := map[int]bool{}
	for _, p := range pats {
		if p.Detail == "" {
			t.Errorf("pattern without rendered detail: %+v", p)
		}
		if p.Calls == 0 {
			t.Errorf("pattern never invoked: %+v", p)
		}
		orders[p.Order] = true
	}
	if !orders[1] || !orders[2] {
		t.Fatalf("greedy order positions = %v, want {1,2}", orders)
	}
}

// TestExplainAccumulatesAcrossInvocations pins the push-path accounting:
// a node invoked once per outer row sums its output over every
// invocation (not just the last one), and groups are counted like any
// other node — what leaves a group is what enters whatever follows it.
func TestExplainAccumulatesAcrossInvocations(t *testing.T) {
	st := fixtureStore(t)
	q, err := Parse(`PREFIX ex: <http://ex/> SELECT ?p ?k WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k } }`)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := q.Explain(st)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Rows != 4 {
		t.Fatalf("rows = %d, want 4", exp.Rows)
	}
	root := exp.Plan
	if root.Kind != "group" || len(root.Children) != 2 || root.Children[1].Kind != "optional" {
		t.Fatalf("unexpected plan shape: %+v", root)
	}
	opt := root.Children[1]
	inner := opt.Children[0]
	pat := inner.Children[0].Children[0]
	if pat.Kind != "pattern" {
		t.Fatalf("inner node = %s, want pattern", pat.Kind)
	}
	// three persons reach the OPTIONAL; alice knows two, bob one, carol none
	if pat.Calls != 3 || pat.RowsIn != 3 || pat.RowsOut != 3 {
		t.Errorf("inner pattern calls/in/out = %d/%d/%d, want 3/3/3", pat.Calls, pat.RowsIn, pat.RowsOut)
	}
	if inner.Calls != 3 || inner.RowsOut != pat.RowsOut {
		t.Errorf("inner group calls/out = %d/%d, want 3/%d", inner.Calls, inner.RowsOut, pat.RowsOut)
	}
	if opt.RowsIn != 3 || opt.RowsOut != 4 {
		t.Errorf("optional in/out = %d/%d, want 3/4", opt.RowsIn, opt.RowsOut)
	}
	// the root group feeds the stage after "where"
	if root.RowsOut != 4 || root.RowsOut != exp.Stages[1].RowsIn {
		t.Errorf("root group out = %d, next stage %q in = %d, want 4", root.RowsOut, exp.Stages[1].Name, exp.Stages[1].RowsIn)
	}

	// a nested group feeds its next sibling
	q, err = Parse(`PREFIX ex: <http://ex/> SELECT ?p WHERE { { ?p a ex:Person } ?p ex:knows ?k }`)
	if err != nil {
		t.Fatal(err)
	}
	if exp, err = q.Explain(st); err != nil {
		t.Fatal(err)
	}
	kids := exp.Plan.Children
	if len(kids) != 2 || kids[0].Kind != "group" {
		t.Fatalf("unexpected plan shape: %+v", exp.Plan)
	}
	if kids[0].RowsOut != 3 || kids[0].RowsOut != kids[1].RowsIn {
		t.Errorf("nested group out = %d, following %s in = %d, want 3", kids[0].RowsOut, kids[1].Kind, kids[1].RowsIn)
	}
}
