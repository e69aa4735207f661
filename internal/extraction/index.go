// Package extraction implements H-BOLD's Index Extraction: the query
// battery that derives, from any SPARQL endpoint, the structural and
// statistical indexes the tool visualizes — number of instances, number
// of classes, the list of classes with their properties, and per-class
// instance counts.
//
// Public endpoints differ wildly in what they support, so extraction uses
// pattern strategies [Benedetti, Bergamaschi & Po, LD4IE 2014]: it first
// attempts the efficient aggregate queries and transparently falls back
// to DISTINCT enumeration with LIMIT/OFFSET paging when the endpoint
// rejects aggregates or truncates results.
//
// Enumeration consumes each page as a row stream (endpoint.Stream):
// rows are folded into counters and small maps as they arrive instead of
// being materialized per page, so extraction memory is bounded by the
// aggregation state, not the page size — and a canceled context (a
// stopped scheduler job, a CLI timeout) aborts mid-page instead of at
// the next page boundary.
package extraction

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/endpoint"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Index is the output of one extraction run over one endpoint.
type Index struct {
	// Endpoint is the endpoint URL the index was extracted from.
	Endpoint string `json:"endpoint"`
	// ExtractedAt is the completion time.
	ExtractedAt time.Time `json:"extractedAt"`
	// Strategy records which pattern strategy succeeded ("aggregate" or
	// "enumerate").
	Strategy string `json:"strategy"`
	// Triples is the endpoint's total triple count.
	Triples int `json:"triples"`
	// Instances is the number of typed instances (rdf:type statements).
	Instances int `json:"instances"`
	// Classes lists every instantiated class with its statistics, sorted
	// by descending instance count.
	Classes []ClassIndex `json:"classes"`
	// Predicates lists every distinct predicate in the corpus with its
	// occurrence count, sorted by IRI — observed over all triples, typed
	// and untyped subjects alike. The per-class property lists above only
	// see properties of typed instances, so this full-corpus set is what
	// makes predicate-based source pruning sound: a predicate absent here
	// is provably absent from the endpoint. nil means the index predates
	// the full scan (a legacy document); an empty non-nil slice means the
	// corpus holds no triples.
	Predicates []PropertyCount `json:"predicates"`
}

// NumClasses returns the number of instantiated classes.
func (ix *Index) NumClasses() int { return len(ix.Classes) }

// Clone returns a deep copy sharing no backing array with ix, so
// ApplyDelta can adjust the copy while readers hold the original. Nil
// slices stay nil: a legacy index's missing predicate scan must survive.
func (ix *Index) Clone() *Index {
	c := *ix
	c.Predicates = slices.Clone(ix.Predicates)
	c.Classes = slices.Clone(ix.Classes)
	for i := range c.Classes {
		ci := &c.Classes[i]
		ci.DataProperties = slices.Clone(ci.DataProperties)
		ci.ObjectProperties = slices.Clone(ci.ObjectProperties)
	}
	return &c
}

// ClassIndex summarizes one instantiated class.
type ClassIndex struct {
	// IRI identifies the class.
	IRI string `json:"iri"`
	// Label is the display name (IRI local name).
	Label string `json:"label"`
	// Instances is the number of instances typed with this class.
	Instances int `json:"instances"`
	// DataProperties are the datatype properties observed on instances,
	// with occurrence counts.
	DataProperties []PropertyCount `json:"dataProperties"`
	// ObjectProperties are the links to other classes: property IRI,
	// target class and occurrence count.
	ObjectProperties []LinkCount `json:"objectProperties"`
}

// PropertyCount is a property with its occurrence count.
type PropertyCount struct {
	IRI   string `json:"iri"`
	Count int    `json:"count"`
}

// LinkCount is an object property with its range class and count.
type LinkCount struct {
	IRI    string `json:"iri"`
	Target string `json:"target"`
	Count  int    `json:"count"`
}

// Extractor runs index extraction against a Client.
type Extractor struct {
	// PageSize bounds enumeration pages; it must not exceed the smallest
	// silent-truncation cap in the wild (1000 in our simulation).
	PageSize int
	// MaxClasses aborts extraction when an endpoint exposes more classes
	// than H-BOLD can visualize (0 = unlimited).
	MaxClasses int
}

// New returns an extractor with production defaults.
func New() *Extractor {
	return &Extractor{PageSize: 1000}
}

// Extract runs the full index extraction, trying the pattern strategies
// from the most to the least capable: full aggregates (GROUP BY),
// plain-COUNT ("mixed"), then pure enumeration with paging. The context
// reaches every query on the wire; canceling it aborts the run mid-page
// without trying further strategies.
func (e *Extractor) Extract(ctx context.Context, c endpoint.Client, url string, now time.Time) (*Index, error) {
	var err error
	for _, strategy := range []struct {
		name string
		run  func(context.Context, endpoint.Client, *Index) error
	}{{"aggregate", e.extractAggregate}, {"mixed", e.extractMixed}, {"enumerate", e.extractEnumerate}} {
		ix := &Index{Endpoint: url, ExtractedAt: now, Strategy: strategy.name}
		if err = strategy.run(ctx, c, ix); err == nil {
			e.fetchLabels(ctx, c, ix)
			return ix, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("extraction: all strategies failed for %s: %w", url, err)
}

// fetchLabels upgrades class display names with rdfs:label where the
// ontology provides one (preferring untagged or English labels). It is
// best effort: failures leave the IRI-derived local names in place.
func (e *Extractor) fetchLabels(ctx context.Context, c endpoint.Client, ix *Index) {
	if len(ix.Classes) == 0 {
		return
	}
	// rank: plain literal > @en > any other language; first wins per rank
	rank := func(lang string) int {
		switch lang {
		case "":
			return 0
		case "en":
			return 1
		default:
			return 2
		}
	}
	labels := map[string]string{}
	best := map[string]int{}
	err := e.streamRows(ctx, c, fmt.Sprintf(
		`SELECT ?c ?l WHERE { ?c <%s> ?l } LIMIT 10000`, rdf.RDFSLabel),
		[]string{"c", "l"}, func(row []rdf.Term) {
			cls, lab := row[0], row[1]
			if !cls.IsIRI() || !lab.IsLiteral() || lab.Value == "" {
				return
			}
			r := rank(lab.Lang)
			if cur, seen := best[cls.Value]; !seen || r < cur {
				labels[cls.Value] = lab.Value
				best[cls.Value] = r
			}
		})
	if err != nil {
		return
	}
	for i := range ix.Classes {
		if l, ok := labels[ix.Classes[i].IRI]; ok && l != "" {
			ix.Classes[i].Label = l
		}
	}
}

// extractMixed handles endpoints that answer plain COUNT aggregates but
// reject GROUP BY: classes and properties are enumerated with DISTINCT
// paging, and each is counted with an ungrouped COUNT query.
func (e *Extractor) extractMixed(ctx context.Context, c endpoint.Client, ix *Index) error {
	res, err := c.Query(ctx, `SELECT (COUNT(?o) AS ?n) WHERE { ?s ?p ?o }`)
	if err != nil {
		return err
	}
	ix.Triples = intResult(res, "n")

	// full-corpus predicates: DISTINCT enumeration + one ungrouped COUNT
	// each, matching the strategy's capability profile
	preds, err := e.pageAll(ctx, c,
		`SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p`, "p")
	if err != nil {
		return err
	}
	ix.Predicates = make([]PropertyCount, 0, len(preds))
	for _, p := range preds {
		res, err := c.Query(ctx, fmt.Sprintf(
			`SELECT (COUNT(?o) AS ?n) WHERE { ?s <%s> ?o }`, p))
		if err != nil {
			return err
		}
		ix.Predicates = append(ix.Predicates, PropertyCount{IRI: p, Count: intResult(res, "n")})
	}

	classIRIs, err := e.pageAll(ctx, c,
		`SELECT DISTINCT ?c WHERE { ?s a ?c } ORDER BY ?c`, "c")
	if err != nil {
		return err
	}
	if e.MaxClasses > 0 && len(classIRIs) > e.MaxClasses {
		return fmt.Errorf("extraction: %d classes exceed limit %d", len(classIRIs), e.MaxClasses)
	}
	for _, cls := range classIRIs {
		res, err := c.Query(ctx, fmt.Sprintf(
			`SELECT (COUNT(?s) AS ?n) WHERE { ?s a <%s> }`, cls))
		if err != nil {
			return err
		}
		cnt := intResult(res, "n")
		ci := ClassIndex{IRI: cls, Label: rdf.NewIRI(cls).LocalName(), Instances: cnt}
		ix.Instances += cnt

		// datatype properties: DISTINCT enumeration + one COUNT each
		props, err := e.pageAll(ctx, c, fmt.Sprintf(
			`SELECT DISTINCT ?p WHERE { ?s a <%s> . ?s ?p ?o FILTER isLiteral(?o) } ORDER BY ?p`, cls), "p")
		if err != nil {
			return err
		}
		for _, p := range props {
			res, err := c.Query(ctx, fmt.Sprintf(
				`SELECT (COUNT(?o) AS ?n) WHERE { ?s a <%s> . ?s <%s> ?o FILTER isLiteral(?o) }`, cls, p))
			if err != nil {
				return err
			}
			ci.DataProperties = append(ci.DataProperties, PropertyCount{IRI: p, Count: intResult(res, "n")})
		}

		// object properties: DISTINCT (property, range class) pairs + COUNT
		type pd struct{ p, d string }
		var pairs []pd
		err = e.streamRows(ctx, c, fmt.Sprintf(
			`SELECT DISTINCT ?p ?d WHERE { ?s a <%s> . ?s ?p ?o . ?o a ?d } ORDER BY ?p ?d LIMIT %d`, cls, e.pageSize()),
			[]string{"p", "d"}, func(row []rdf.Term) {
				pairs = append(pairs, pd{row[0].Value, row[1].Value})
			})
		if err != nil {
			return err
		}
		for _, pair := range pairs {
			if pair.p == rdf.RDFType {
				continue
			}
			res3, err := c.Query(ctx, fmt.Sprintf(
				`SELECT (COUNT(?o) AS ?n) WHERE { ?s a <%s> . ?s <%s> ?o . ?o a <%s> }`, cls, pair.p, pair.d))
			if err != nil {
				return err
			}
			ci.ObjectProperties = append(ci.ObjectProperties, LinkCount{IRI: pair.p, Target: pair.d, Count: intResult(res3, "n")})
		}
		sortClassIndex(&ci)
		ix.Classes = append(ix.Classes, ci)
	}
	sortClasses(ix.Classes)
	return nil
}

// extractAggregate uses COUNT/GROUP BY queries.
func (e *Extractor) extractAggregate(ctx context.Context, c endpoint.Client, ix *Index) error {
	res, err := c.Query(ctx, `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`)
	if err != nil {
		return err
	}
	ix.Triples = intResult(res, "n")

	// full-corpus predicate partition: unlike the per-class property
	// queries below, ?s is untyped here, so predicates occurring only on
	// untyped subjects are captured too
	ix.Predicates = []PropertyCount{}
	err = e.streamRows(ctx, c, `SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p`,
		[]string{"p", "n"}, func(row []rdf.Term) {
			ix.Predicates = append(ix.Predicates, PropertyCount{IRI: row[0].Value, Count: termInt(row[1])})
		})
	if err != nil {
		return err
	}
	sortPredicates(ix.Predicates)

	err = e.streamRows(ctx, c, `SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c ORDER BY DESC(?n)`,
		[]string{"c", "n"}, func(row []rdf.Term) {
			cls := row[0]
			n := termInt(row[1])
			ix.Classes = append(ix.Classes, ClassIndex{
				IRI: cls.Value, Label: cls.LocalName(), Instances: n,
			})
			ix.Instances += n
		})
	if err != nil {
		return err
	}
	if e.MaxClasses > 0 && len(ix.Classes) > e.MaxClasses {
		return fmt.Errorf("extraction: %d classes exceed limit %d", len(ix.Classes), e.MaxClasses)
	}

	for i := range ix.Classes {
		ci := &ix.Classes[i]
		// datatype properties
		err = e.streamRows(ctx, c, fmt.Sprintf(
			`SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a <%s> . ?s ?p ?o FILTER isLiteral(?o) } GROUP BY ?p`, ci.IRI),
			[]string{"p", "n"}, func(row []rdf.Term) {
				ci.DataProperties = append(ci.DataProperties, PropertyCount{
					IRI: row[0].Value, Count: termInt(row[1]),
				})
			})
		if err != nil {
			return err
		}
		// object properties with their range classes
		err = e.streamRows(ctx, c, fmt.Sprintf(
			`SELECT ?p ?d (COUNT(?o) AS ?n) WHERE { ?s a <%s> . ?s ?p ?o . ?o a ?d } GROUP BY ?p ?d`, ci.IRI),
			[]string{"p", "d", "n"}, func(row []rdf.Term) {
				if row[0].Value == rdf.RDFType {
					return
				}
				ci.ObjectProperties = append(ci.ObjectProperties, LinkCount{
					IRI: row[0].Value, Target: row[1].Value, Count: termInt(row[2]),
				})
			})
		if err != nil {
			return err
		}
		sortClassIndex(ci)
	}
	sortClasses(ix.Classes)
	return nil
}

// extractEnumerate pages DISTINCT enumerations and counts client-side.
func (e *Extractor) extractEnumerate(ctx context.Context, c endpoint.Client, ix *Index) error {
	// distinct classes
	classIRIs, err := e.pageAll(ctx, c,
		`SELECT DISTINCT ?c WHERE { ?s a ?c } ORDER BY ?c`, "c")
	if err != nil {
		return err
	}
	if e.MaxClasses > 0 && len(classIRIs) > e.MaxClasses {
		return fmt.Errorf("extraction: %d classes exceed limit %d", len(classIRIs), e.MaxClasses)
	}

	ix.Classes = nil
	ix.Instances = 0

	// total triples and full-corpus predicate counts off one paged scan
	// of all statements — every triple passes through here, so the
	// predicate set is complete regardless of subject typing
	predCounts := map[string]int{}
	ix.Triples, err = e.pageRows(ctx, c, `SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`,
		[]string{"p"}, func(row []rdf.Term) { predCounts[row[0].Value]++ })
	if err != nil {
		return err
	}
	ix.Predicates = make([]PropertyCount, 0, len(predCounts))
	for p, n := range predCounts {
		ix.Predicates = append(ix.Predicates, PropertyCount{IRI: p, Count: n})
	}
	sortPredicates(ix.Predicates)

	for _, cls := range classIRIs {
		t := rdf.NewIRI(cls)
		cnt, err := e.pageRows(ctx, c, fmt.Sprintf(
			`SELECT ?s WHERE { ?s a <%s> } ORDER BY ?s`, cls), nil, func([]rdf.Term) {})
		if err != nil {
			return err
		}
		ci := ClassIndex{IRI: cls, Label: t.LocalName(), Instances: cnt}
		ix.Instances += cnt

		// properties: enumerate triples of typed subjects page by page and
		// classify objects client-side, folding each row into the counters
		// as it arrives off the stream
		dataCounts := map[string]int{}
		linkCounts := map[[2]string]int{}
		_, err = e.pageRows(ctx, c, fmt.Sprintf(
			`SELECT ?p ?o WHERE { ?s a <%s> . ?s ?p ?o } ORDER BY ?p ?o`, cls),
			[]string{"p", "o"}, func(row []rdf.Term) {
				p := row[0].Value
				if p == rdf.RDFType {
					return
				}
				o := row[1]
				if o.IsLiteral() {
					dataCounts[p]++
				} else if o.IsIRI() {
					// resolve the object's class with a spot query (ASK per
					// candidate would be costly; instead fetch its types)
					linkCounts[[2]string{p, o.Value}]++
				}
			})
		if err != nil {
			return err
		}
		for p, n := range dataCounts {
			ci.DataProperties = append(ci.DataProperties, PropertyCount{IRI: p, Count: n})
		}
		// aggregate object links by target class: query each distinct
		// object's type once, caching
		typeCache := map[string]string{}
		linkByClass := map[[2]string]int{}
		for key, n := range linkCounts {
			p, obj := key[0], key[1]
			target, ok := typeCache[obj]
			if !ok {
				res, err := c.Query(ctx, fmt.Sprintf(
					`SELECT ?c WHERE { <%s> a ?c } ORDER BY ?c LIMIT 1`, obj))
				if err != nil {
					return err
				}
				if len(res.Rows) > 0 {
					target = res.Rows[0]["c"].Value
				}
				typeCache[obj] = target
			}
			if target != "" {
				linkByClass[[2]string{p, target}] += n
			}
		}
		for key, n := range linkByClass {
			ci.ObjectProperties = append(ci.ObjectProperties, LinkCount{IRI: key[0], Target: key[1], Count: n})
		}
		sortClassIndex(&ci)
		ix.Classes = append(ix.Classes, ci)
	}
	sortClasses(ix.Classes)
	return nil
}

// streamRows runs one query as a stream and folds every row through fn,
// never holding more than the row in flight: the row's cells of cols, in
// that order (Project), valid for the call.
func (e *Extractor) streamRows(ctx context.Context, c endpoint.Client, q string, cols []string, fn func([]rdf.Term)) error {
	rs, err := endpoint.Stream(ctx, c, q)
	if err != nil {
		return err
	}
	defer rs.Close()
	for row := range rs.Project(cols).Terms() {
		fn(row)
	}
	return rs.Err()
}

// pageSize is PageSize, or 1000 when unset.
func (e *Extractor) pageSize() int {
	if e.PageSize <= 0 {
		return 1000
	}
	return e.PageSize
}

// pageRows runs q, which must order its rows, page by page with LIMIT
// and OFFSET until a page comes back short, folding every row through fn
// as streamRows does; it returns the number of rows.
func (e *Extractor) pageRows(ctx context.Context, c endpoint.Client, q string, cols []string, fn func([]rdf.Term)) (int, error) {
	page, n := e.pageSize(), 0
	for offset := 0; ; offset += page {
		got := 0
		err := e.streamRows(ctx, c, fmt.Sprintf("%s LIMIT %d OFFSET %d", q, page, offset), cols, func(row []rdf.Term) {
			got++
			fn(row)
		})
		n += got
		if err != nil || got < page {
			return n, err
		}
	}
}

// pageAll collects a single variable across pages.
func (e *Extractor) pageAll(ctx context.Context, c endpoint.Client, q, v string) ([]string, error) {
	var out []string
	if _, err := e.pageRows(ctx, c, q, []string{v}, func(row []rdf.Term) { out = append(out, row[0].Value) }); err != nil {
		return nil, err
	}
	return out, nil
}

func sortPredicates(ps []PropertyCount) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].IRI < ps[j].IRI })
}

func sortClasses(cs []ClassIndex) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Instances != cs[j].Instances {
			return cs[i].Instances > cs[j].Instances
		}
		return cs[i].IRI < cs[j].IRI
	})
}

func sortClassIndex(ci *ClassIndex) {
	sort.Slice(ci.DataProperties, func(i, j int) bool {
		return ci.DataProperties[i].IRI < ci.DataProperties[j].IRI
	})
	sort.Slice(ci.ObjectProperties, func(i, j int) bool {
		a, b := ci.ObjectProperties[i], ci.ObjectProperties[j]
		if a.IRI != b.IRI {
			return a.IRI < b.IRI
		}
		return a.Target < b.Target
	})
}

func intResult(res *sparql.Result, v string) int {
	if len(res.Rows) == 0 {
		return 0
	}
	return termInt(res.Rows[0][v])
}

// termInt is a count cell's value, 0 where it is unbound or not an integer.
func termInt(t rdf.Term) int {
	n, _ := t.Int()
	return int(n)
}
