package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"repro/internal/rdf"
)

// opKind is the finest grain latencies are kept at; opClass is the grain
// the layer reconciliation works at.
type opKind uint8

const (
	kView opKind = iota
	kPoint
	kTyped
	kJoin
	kGroup
	kTopK
	kDistinct
	kScan
	kFed
	kUpdSmall
	kUpdBulk
	kUpdWhere
	numKinds
)

var kindNames = [numKinds]string{
	"view", "point", "typed", "join", "group", "topk", "distinct", "scan",
	"fed", "update_small", "update_bulk", "update_where",
}

func (k opKind) String() string { return kindNames[k] }

type opClass uint8

const (
	cView opClass = iota
	cLookup
	cAnalytic
	cScan
	cFed
	cUpdate
	numClasses
)

var classNames = [numClasses]string{"view", "lookup", "analytic", "scan", "fed", "update"}

func (c opClass) String() string { return classNames[c] }

func (k opKind) class() opClass {
	switch k {
	case kView:
		return cView
	case kPoint, kTyped:
		return cLookup
	case kJoin, kGroup, kTopK, kDistinct:
		return cAnalytic
	case kScan:
		return cScan
	case kFed:
		return cFed
	default:
		return cUpdate
	}
}

func (k opKind) isRead() bool { return k.class() != cUpdate }

// Result formats of the sparqld protocol endpoint; scans rotate over all
// four, every other query asks for JSON.
var formats = [4]string{"json", "csv", "tsv", "xml"}

// query is one pooled SPARQL query with its precomputed expectations.
type query struct {
	kind  opKind
	ds    *dataset
	text  string
	limit int  // the query's LIMIT, -1 for none
	order bool // ORDER BY present: the LIMIT cuts a defined order
	// writes: the answer involves a class writers add instances to, so
	// under concurrent updates the checksum (and, below the LIMIT, the
	// row count) is not fixed
	writes bool

	// filled by the oracle
	rows       int
	sum        uint64
	determined bool // the full answer is fixed by the corpus
}

// view is one presentation-layer URL.
type view struct {
	name    string // "summary", "model/treemap", "view/bundle", ...
	ds      *dataset
	path    string
	svg     bool
	etagged bool // the handler stamps an ETag and answers If-None-Match
}

// batch is a group of triples one client inserted and will delete.
type batch struct {
	ds       *dataset
	name     string
	bulk     bool
	subjects []string
	triples  [][3]string // N-Triples surface syntax
	retyped  bool
}

// updateReq is one SPARQL Update request with its expected net delta and an
// optional read-your-write probe.
type updateReq struct {
	ds             *dataset
	text           string
	added, removed int
	b              *batch
	probeSubject   string // "" = no probe
	probeRows      int
}

// op is one generated operation.
type op struct {
	kind   opKind
	q      *query
	format int // index into formats (scans only; 0 otherwise)
	v      *view
	cond   bool // send If-None-Match with the last ETag seen
	u      *updateReq
}

// id is what the determinism self-test hashes: everything the server
// would see of this op.
func (o *op) id() string {
	switch {
	case o.q != nil:
		return fmt.Sprintf("%s|%s|%s|%d", o.kind, o.q.ds.url, o.q.text, o.format)
	case o.v != nil:
		return fmt.Sprintf("%s|%s|%v", o.kind, o.v.path, o.cond)
	default:
		return fmt.Sprintf("%s|%s|%s", o.kind, o.u.ds.url, o.u.text)
	}
}

// pool is every read a workload can issue, grouped by kind, plus the
// classes its writers touch. Pools do not depend on the op seed, so the
// oracle values are the same for every seed; the seed decides the order
// and popularity the pool is drawn with.
type pool struct {
	datasets []*dataset
	queries  [numKinds][]*query
	views    map[string][]*view // by view name
	names    []string           // view names in a fixed order
	fed      bool
}

// Writers type their subjects with the dataset's largest classes: large
// enough that `LIMIT 100` reads over them keep an exact row count.
const writeClasses = 4

// reservedNS is the subject namespace only writers use; no corpus triple
// has a subject or object under it, so reads over corpus subjects stay
// fully determined while writes land.
const reservedNS = "http://bench.example.org/w/"

// Literal values writers insert start with '~', above every character the
// corpora use, so an ascending top-k over corpus values never sees them.
const writerLiteralPrefix = "~w-"

// bulkFiller pads every literal of a bulk batch to ≈ 500 characters — a
// bulk load of described resources (abstracts, comments), not of 10-byte
// codes. Long values fill the 4 MiB memtable with bytes rather than keys,
// so the window holds five to seven flush cycles instead of three, and
// the per-query cost of sorting the memtable swings over a narrower range.
var bulkFiller = strings.Repeat(" lorem ipsum", 40)

const (
	typedLimit = 100
	joinLimit  = 200
	topkLimit  = 10
	scanLimit  = 2000
	fedLimit   = 200
)

func iri(s string) string { return "<" + s + ">" }

// buildPool enumerates the reads over the given datasets. serve selects
// the presentation views and the federated reads (sparqld has neither).
func buildPool(datasets []*dataset, serve bool) *pool {
	p := &pool{datasets: datasets, views: map[string][]*view{}, fed: serve}
	add := func(q *query) { p.queries[q.kind] = append(p.queries[q.kind], q) }
	for _, d := range datasets {
		for ci, c := range d.classes {
			cls := iri(c.iri)
			w := ci < writeClasses // writers add instances of this class
			// point lookups: the head of each class's subject list
			for k, inst := range c.instances {
				if k >= 64 {
					break
				}
				add(&query{kind: kPoint, ds: d, limit: -1,
					text: fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", iri(inst))})
			}
			add(&query{kind: kTyped, ds: d, limit: typedLimit, writes: w,
				text: fmt.Sprintf("SELECT ?s WHERE { ?s a %s } LIMIT %d", cls, typedLimit)})
			if serve {
				add(&query{kind: kFed, ds: d, limit: fedLimit, writes: w,
					text: fmt.Sprintf("SELECT ?s WHERE { ?s a %s } LIMIT %d", cls, fedLimit)})
			}
			for _, l := range c.links {
				add(&query{kind: kJoin, ds: d, limit: joinLimit,
					text: fmt.Sprintf("SELECT ?s ?o WHERE { ?s a %s . ?s %s ?o } LIMIT %d", cls, iri(l.pred), joinLimit)})
				if l.target >= 0 && len(d.classes[l.target].dataProps) > 0 {
					add(&query{kind: kJoin, ds: d, limit: joinLimit,
						text: fmt.Sprintf("SELECT ?s ?o ?v WHERE { ?s a %s . ?s %s ?o . ?o %s ?v } LIMIT %d",
							cls, iri(l.pred), iri(d.classes[l.target].dataProps[0]), joinLimit)})
				}
			}
			// Per-class aggregates range over the twelve classes after the
			// write classes: writers never touch them, so these answers stay
			// fully determined while writes land, and no single
			// several-thousand-instance class decides a window's tail.
			if ci >= writeClasses && ci < writeClasses+12 {
				add(&query{kind: kGroup, ds: d, limit: -1,
					text: fmt.Sprintf("SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s a %s . ?s ?p ?o } GROUP BY ?p", cls)})
				add(&query{kind: kDistinct, ds: d, limit: -1,
					text: fmt.Sprintf("SELECT DISTINCT ?p WHERE { ?s a %s . ?s ?p ?o }", cls)})
			}
			for _, dp := range c.dataProps {
				add(&query{kind: kTopK, ds: d, limit: topkLimit, order: true,
					text: fmt.Sprintf("SELECT ?s ?v WHERE { ?s %s ?v } ORDER BY ?v LIMIT %d", iri(dp), topkLimit)})
			}
		}
		// the per-class instance count is the query H-BOLD's own index
		// extraction starts with; put it first so the Zipf pick favours it
		p.queries[kGroup] = append([]*query{{kind: kGroup, ds: d, limit: -1, writes: true,
			text: "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c"}}, p.queries[kGroup]...)
		add(&query{kind: kScan, ds: d, limit: scanLimit,
			text: fmt.Sprintf("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT %d", scanLimit)})
		if serve {
			p.addViews(d)
		}
	}
	if serve {
		p.views["datasets"] = []*view{{name: "datasets", ds: datasets[0], path: "/api/datasets"}}
		p.names = append([]string{"datasets"}, p.names...)
	}
	return p
}

// focusClasses bounds how many classes per dataset the class-parameterised
// views (class detail, explore, bundle) range over, which bounds the
// snapshot-cache working set at a few MiB — far below the 64 MiB budget.
const focusClasses = 8

func (p *pool) addViews(d *dataset) {
	ds := "dataset=" + url.QueryEscape(d.url)
	add := func(name, path string, svg, etagged bool) {
		if _, ok := p.views[name]; !ok {
			p.names = append(p.names, name)
		}
		p.views[name] = append(p.views[name], &view{name: name, ds: d, path: path, svg: svg, etagged: etagged})
	}
	add("summary", "/api/summary?"+ds, false, true)
	add("cluster", "/api/cluster?"+ds, false, true)
	for _, m := range []string{"treemap", "sunburst", "circlepack"} {
		add("model/"+m, "/api/model/"+m+"?"+ds, false, true)
	}
	for _, v := range []string{"treemap", "sunburst", "circlepack", "cluster-graph", "summary-graph"} {
		add("view/"+v, "/view/"+v+"?"+ds, true, true)
	}
	for i, c := range d.classes {
		if i >= focusClasses {
			break
		}
		cq := url.QueryEscape(c.iri)
		add("class", "/api/class?"+ds+"&class="+cq, false, true)
		add("explore", "/api/explore?"+ds+"&focus="+cq, false, true)
		add("view/bundle", "/view/bundle?"+ds+"&focus="+cq, true, true)
	}
}

// mix is a workload's op proportions out of 100. Each client deals its ops
// from shuffled 100-card decks, so every 100 consecutive ops hold exactly
// these counts: the seed moves the order, never the proportions.
type mix [numKinds]int

// reads reports whether the mix issues any read.
func (m mix) reads() bool {
	for k, n := range m {
		if n > 0 && opKind(k).isRead() {
			return true
		}
	}
	return false
}

func (m mix) deck() []opKind {
	var d []opKind
	for k, n := range m {
		for i := 0; i < n; i++ {
			d = append(d, opKind(k))
		}
	}
	if len(d) != 100 {
		panic(fmt.Sprintf("bench: mix sums to %d, not 100", len(d)))
	}
	return d
}

// generator deals one client's op sequence. It is a pure function of
// (pool, mix, seed, client): the server's speed decides how far into the
// sequence a run gets, never what the sequence is.
type generator struct {
	p      *pool
	rng    *rand.Rand
	client int
	deck   []opKind
	pos    int
	zipf   map[int]*rand.Zipf // by pool size

	smallSlots int
	nextBatch  int
	smallLive  []*batch
	bulkLive   []*batch
	deleted    []*batch // most recent acknowledged deletes, newest last
	scans      int
}

// Live-batch targets: a client holds this many small batches (and one
// bulk batch) before each further update slot deletes its oldest, so the
// corpus size is stationary after the first few updates.
const (
	smallLiveTarget = 4
	bulkLiveTarget  = 1
	smallSubjects   = 2   // × 5 triples = 10
	bulkSubjects    = 400 // × 5 triples = 2000
	triplesPerSubj  = 5
	whereEvery      = 10 // every 10th small-update slot is a WHERE retype
	keepDeleted     = 8
)

func newGenerator(p *pool, m mix, seed int64, client int) *generator {
	g := &generator{
		p:      p,
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17)),
		client: client,
		deck:   m.deck(),
		zipf:   map[int]*rand.Zipf{},
	}
	g.pos = len(g.deck) // deal a fresh deck on the first call
	return g
}

// pick draws a Zipf-distributed index in [0, n).
func (g *generator) pick(n int) int {
	if n <= 1 {
		return 0
	}
	z := g.zipf[n]
	if z == nil {
		z = rand.NewZipf(g.rng, 1.2, 1, uint64(n-1))
		g.zipf[n] = z
	}
	return int(z.Uint64())
}

func (g *generator) next() *op {
	if g.pos == len(g.deck) {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.pos = 0
	}
	k := g.deck[g.pos]
	g.pos++
	switch k {
	case kView:
		name := g.p.names[g.rng.Intn(len(g.p.names))]
		vs := g.p.views[name]
		// views of one name are laid out dataset-major, so a Zipf pick over
		// the list is a Zipf pick over (dataset, focus class)
		v := vs[g.pick(len(vs))]
		return &op{kind: kView, v: v, cond: v.etagged && g.rng.Intn(4) == 0}
	case kUpdSmall:
		return g.smallUpdate()
	case kUpdBulk:
		return g.bulkUpdate()
	case kScan:
		qs := g.p.queries[kScan]
		g.scans++
		return &op{kind: kScan, q: qs[g.pick(len(qs))], format: g.scans % len(formats)}
	default:
		qs := g.p.queries[k]
		return &op{kind: k, q: qs[g.pick(len(qs))]}
	}
}

// newBatch builds a batch of fresh subjects typed with one of the
// dataset's write classes, each carrying literal values on that class's
// own datatype properties (so no new predicate or class ever appears).
func (g *generator) newBatch(bulk bool) *batch {
	d := g.p.datasets[g.pick(len(g.p.datasets))]
	n := g.nextBatch
	g.nextBatch++
	ci := n % writeClasses
	if ci >= len(d.classes) {
		ci = 0
	}
	c := d.classes[ci]
	b := &batch{ds: d, name: fmt.Sprintf("c%d-b%d", g.client, n), bulk: bulk}
	subjects := smallSubjects
	if bulk {
		subjects = bulkSubjects
	}
	props := c.dataProps
	if len(props) == 0 {
		props = []string{rdf.RDFSLabel}
	}
	for s := 0; s < subjects; s++ {
		subj := fmt.Sprintf("%s%s/s%d", reservedNS, b.name, s)
		b.subjects = append(b.subjects, subj)
		b.triples = append(b.triples, [3]string{iri(subj), iri(rdf.RDFType), iri(c.iri)})
		for v := 0; v < triplesPerSubj-1; v++ {
			val := fmt.Sprintf("%s%s-s%d-%d", writerLiteralPrefix, b.name, s, v)
			if bulk {
				val += bulkFiller
			}
			lit := fmt.Sprintf("%q", val)
			b.triples = append(b.triples, [3]string{iri(subj), iri(props[v%len(props)]), lit})
		}
	}
	return b
}

func dataBlock(verb string, triples [][3]string) string {
	var sb strings.Builder
	sb.WriteString(verb)
	sb.WriteString(" DATA {\n")
	for _, t := range triples {
		sb.WriteString(t[0])
		sb.WriteByte(' ')
		sb.WriteString(t[1])
		sb.WriteByte(' ')
		sb.WriteString(t[2])
		sb.WriteString(" .\n")
	}
	sb.WriteString("}")
	return sb.String()
}

func (g *generator) insert(b *batch, kind opKind) *op {
	return &op{kind: kind, u: &updateReq{
		ds: b.ds, text: dataBlock("INSERT", b.triples), added: len(b.triples), b: b,
		probeSubject: b.subjects[len(b.subjects)-1], probeRows: triplesPerSubj,
	}}
}

func (g *generator) remove(b *batch, kind opKind) *op {
	g.deleted = append(g.deleted, b)
	if len(g.deleted) > keepDeleted {
		g.deleted = g.deleted[1:]
	}
	return &op{kind: kind, u: &updateReq{
		ds: b.ds, text: dataBlock("DELETE", b.triples), removed: len(b.triples), b: b,
		probeSubject: b.subjects[0], probeRows: 0,
	}}
}

func (g *generator) smallUpdate() *op {
	g.smallSlots++
	if g.smallSlots%whereEvery == 0 {
		// retype the newest live batch's first subject to the next write
		// class: one triple out, one in, through the pattern path
		for i := len(g.smallLive) - 1; i >= 0; i-- {
			b := g.smallLive[i]
			if b.retyped || len(b.ds.classes) < 2 {
				continue
			}
			b.retyped = true
			old := b.triples[0]
			var next string
			for ci := 0; ci < writeClasses && ci < len(b.ds.classes); ci++ {
				if c := iri(b.ds.classes[ci].iri); c != old[2] {
					next = c
					break
				}
			}
			b.triples[0] = [3]string{old[0], old[1], next}
			text := fmt.Sprintf("DELETE { %s a %s } INSERT { %s a %s } WHERE { %s a %s }",
				old[0], old[2], old[0], next, old[0], old[2])
			return &op{kind: kUpdWhere, u: &updateReq{ds: b.ds, text: text, added: 1, removed: 1, b: b,
				probeSubject: b.subjects[0], probeRows: triplesPerSubj}}
		}
	}
	if len(g.smallLive) < smallLiveTarget {
		b := g.newBatch(false)
		g.smallLive = append(g.smallLive, b)
		return g.insert(b, kUpdSmall)
	}
	b := g.smallLive[0]
	g.smallLive = g.smallLive[1:]
	return g.remove(b, kUpdSmall)
}

func (g *generator) bulkUpdate() *op {
	if len(g.bulkLive) < bulkLiveTarget {
		b := g.newBatch(true)
		g.bulkLive = append(g.bulkLive, b)
		return g.insert(b, kUpdBulk)
	}
	b := g.bulkLive[0]
	g.bulkLive = g.bulkLive[1:]
	return g.remove(b, kUpdBulk)
}
