// The reader-semantics soak: what a query sees while updates land, over
// real HTTP, on both storage tiers. It lives in the external test package
// for the reason update_surface_test.go gives.
package endpoint_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/endpoint"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/update"
)

// A batch is soakSubjects subjects, each typed soak:Item and labelled with
// the batch's current label: soakK triples that all carry one number.
const (
	soakSubjects = 3
	soakK        = 2 * soakSubjects
	soakNS       = "http://soak/"
)

func soakSubject(group, j int) string { return fmt.Sprintf("%sg/%d/%d", soakNS, group, j) }

// soakTriples is the body of an INSERT DATA / DELETE DATA for one batch.
func soakTriples(group, label int) string {
	var b strings.Builder
	for j := 0; j < soakSubjects; j++ {
		fmt.Fprintf(&b, "<%s> a <%sItem> . <%s> <%sbatch> \"%d\" .\n",
			soakSubject(group, j), soakNS, soakSubject(group, j), soakNS, label)
	}
	return b.String()
}

// soakState is the signature of one committed corpus: how many batches
// are live, and order-independent sums over their (group, label) pairs
// and over their labels alone (all a GROUP BY on the label can show).
type soakState struct {
	groups        int
	pairs, labels uint64
}

func mix(a, b int) uint64 {
	x := uint64(a)<<32 | uint64(uint32(b))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

func (s *soakState) add(group, label int) {
	s.groups++
	s.pairs += mix(group, label)
	s.labels += mix(label, label)
}

func (s *soakState) drop(group, label int) {
	s.groups--
	s.pairs -= mix(group, label)
	s.labels -= mix(label, label)
}

// soakLog is what the writer tells the readers: the corpus after every
// operation it has issued, and how far it has been acknowledged.
type soakLog struct {
	mu      sync.Mutex
	ack     *sync.Cond  // signalled on every acknowledgement and at the end
	states  []soakState // states[n] is the corpus after operation n; states[0] is empty
	inserts []bool      // inserts[n]: operation n inserted batch n, interning its subjects
	issued  int         // operations whose request may have reached the server
	acked   int         // operations whose 200 has been read
	done    bool
}

func (l *soakLog) marks() (issued, acked int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.issued, l.acked
}

// TestSoakQueriesSeeWholeUpdates is the contract both tiers state for
// store.Queryable.Snapshot, checked from the outside. A writer posts
// numbered operations — operation n inserts batch n, every fourth deletes
// an earlier batch whole, every tenth relabels one with a DELETE/INSERT …
// WHERE — while readers stream a full scan, a two-pattern join and a
// GROUP BY … COUNT in all five result formats. Every response must be the
// answer on the corpus as it stood after some operation between the last
// one acknowledged before the request was sent and the last one issued
// before its final byte arrived; in particular no batch is ever seen in
// part. Beside them a direct reader checks that a held snapshot does not
// learn terms interned after it was taken, and that the term-level reads
// are whole generations too.
func TestSoakQueriesSeeWholeUpdates(t *testing.T) {
	budget := 4 * time.Second
	if testing.Short() {
		budget = time.Second
	}
	t.Run("memory", func(t *testing.T) { soak(t, store.New(), budget) })
	t.Run("disk", func(t *testing.T) {
		ds, err := disk.Open(t.TempDir(), disk.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		soak(t, ds, budget)
	})
}

func soak(t *testing.T, be store.Backend, budget time.Duration) {
	h := &endpoint.Handler{Store: be}
	h.Update = func(ctx context.Context, text string) (int, int, error) {
		d, err := update.ApplyText(ctx, be, text)
		if err != nil {
			return 0, 0, err
		}
		return len(d.Added), len(d.Removed), nil
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	log := &soakLog{states: []soakState{{}}, inserts: []bool{false}}
	log.ack = sync.NewCond(&log.mu)

	var wg sync.WaitGroup
	var responses, lookups atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			log.mu.Lock()
			log.done = true
			log.ack.Broadcast()
			log.mu.Unlock()
		}()
		soakWriter(ctx, t, srv.URL, log)
	}()
	queries := []struct{ kind, text string }{
		{"scan", `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`},
		{"join", `SELECT ?s ?b WHERE { ?s a <` + soakNS + `Item> . ?s <` + soakNS + `batch> ?b }`},
		{"group", `SELECT ?b (COUNT(?s) AS ?n) WHERE { ?s <` + soakNS + `batch> ?b } GROUP BY ?b`},
	}
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := i; ctx.Err() == nil && !t.Failed(); n++ {
				format := soakFormats[n%len(soakFormats)]
				if err := soakRead(ctx, srv.URL, log, q.kind, q.text, format); err != nil {
					if ctx.Err() == nil {
						t.Errorf("%s as %s: %v", q.kind, format, err)
					}
					return
				}
				responses.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil && !t.Failed() {
			if err := soakDirect(be, log); err != nil {
				t.Error(err)
				return
			}
			lookups.Add(1)
		}
	}()
	wg.Wait()

	issued, acked := log.marks()
	t.Logf("%d operations acknowledged (%d issued), %d responses checked, %d held snapshots checked",
		acked, issued, responses.Load(), lookups.Load())
	if !t.Failed() && (acked < 20 || responses.Load() < 15 || lookups.Load() < 3) {
		t.Errorf("the soak barely ran: %d operations, %d responses, %d snapshots", acked, responses.Load(), lookups.Load())
	}
}

// soakWriter posts operations one after the other until ctx ends.
func soakWriter(ctx context.Context, t *testing.T, base string, log *soakLog) {
	type batch struct{ group, label int }
	var live []batch // oldest first
	state := soakState{}
	for n := 1; ctx.Err() == nil && !t.Failed(); n++ {
		var text string
		var added, removed int
		insert := false
		switch {
		case n%10 == 0 && len(live) > 0:
			b := &live[len(live)/2]
			text = fmt.Sprintf(`DELETE { ?s <%sbatch> "%d" } INSERT { ?s <%sbatch> "%d" } WHERE { ?s <%sbatch> "%d" }`,
				soakNS, b.label, soakNS, n, soakNS, b.label)
			state.drop(b.group, b.label)
			b.label = n
			state.add(b.group, b.label)
			added, removed = soakSubjects, soakSubjects
		case n%4 == 0 && len(live) > 1:
			b := live[0]
			live = live[1:]
			text = "DELETE DATA {\n" + soakTriples(b.group, b.label) + "}"
			state.drop(b.group, b.label)
			removed = soakK
		default:
			text = "INSERT DATA {\n" + soakTriples(n, n) + "}"
			live = append(live, batch{n, n})
			state.add(n, n)
			added, insert = soakK, true
		}
		log.mu.Lock()
		log.states = append(log.states, state)
		log.inserts = append(log.inserts, insert)
		log.issued = n
		log.mu.Unlock()

		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base, strings.NewReader(text))
		req.Header.Set("Content-Type", "application/sparql-update")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				t.Errorf("operation %d: %v", n, err)
			}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ctx.Err() != nil {
			return // the deadline may have cut the request; it is not acknowledged
		}
		want := fmt.Sprintf(`{"added":%d,"removed":%d}`, added, removed)
		if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != want {
			t.Errorf("operation %d: status %d, body %q, want %s\n%s", n, resp.StatusCode, body, want, text)
			return
		}
		log.mu.Lock()
		log.acked = n
		log.ack.Broadcast()
		log.mu.Unlock()
	}
}

var soakFormats = []string{"json", "ndjson", "csv", "tsv", "xml"}

// soakRead runs one query and checks its answer against the window of
// corpora the server may legitimately have answered from.
func soakRead(ctx context.Context, base string, log *soakLog, kind, query, format string) error {
	_, lo := log.marks()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"?format="+format+"&query="+url.QueryEscape(query), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	hi, _ := log.marks()
	if err != nil {
		return fmt.Errorf("reading the body: %w", err)
	}
	if resp.StatusCode != 200 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	rows, err := soakRows(format, body)
	if err != nil {
		return fmt.Errorf("%w in\n%s", err, head(body))
	}
	got, err := soakSignature(kind, rows)
	if err != nil {
		return fmt.Errorf("operations %d..%d: %w", lo, hi, err)
	}
	log.mu.Lock()
	window := append([]soakState(nil), log.states[lo:hi+1]...)
	log.mu.Unlock()
	for _, st := range window {
		if kind == "group" {
			st.pairs = 0
		}
		if st == got {
			return nil
		}
	}
	return fmt.Errorf("%d rows (%d batches) equal the corpus after none of operations %d..%d", len(rows), got.groups, lo, hi)
}

func head(b []byte) []byte { return b[:min(len(b), 600)] }

// soakSignature reduces a result to the state it shows, refusing any
// batch that is not whole.
func soakSignature(kind string, rows [][]string) (soakState, error) {
	var st soakState
	if kind == "group" { // rows are (label, subjects)
		for _, r := range rows {
			label, err := strconv.Atoi(r[0])
			if err != nil || r[1] != strconv.Itoa(soakSubjects) {
				return st, fmt.Errorf("label %q counts %s subjects, a whole batch has %d", r[0], r[1], soakSubjects)
			}
			st.groups++
			st.labels += mix(label, label)
		}
		return st, nil
	}
	// scan rows are (s, p, o), join rows (s, label): group them by batch
	type seen struct {
		rows   int
		labels map[string]int
	}
	groups := map[int]*seen{}
	for _, r := range rows {
		var g, j int
		if _, err := fmt.Sscanf(r[0], soakNS+"g/%d/%d", &g, &j); err != nil {
			return st, fmt.Errorf("subject %q is not a soak subject", r[0])
		}
		s := groups[g]
		if s == nil {
			s = &seen{labels: map[string]int{}}
			groups[g] = s
		}
		s.rows++
		switch {
		case kind == "join":
			s.labels[r[1]]++
		case r[1] == soakNS+"batch":
			s.labels[r[2]]++
		}
	}
	wantRows := soakSubjects
	if kind == "scan" {
		wantRows = soakK
	}
	for g, s := range groups {
		if s.rows != wantRows || len(s.labels) != 1 {
			return st, fmt.Errorf("batch %d seen in part: %d rows (whole is %d), labels %v", g, s.rows, wantRows, s.labels)
		}
		for l, n := range s.labels {
			label, err := strconv.Atoi(l)
			if err != nil || n != soakSubjects {
				return st, fmt.Errorf("batch %d seen in part: label %q on %d subjects", g, l, n)
			}
			st.add(g, label)
		}
	}
	return st, nil
}

// soakRows decodes a complete result document of any of the five formats
// into rows of plain values (IRIs and lexical forms) in head order. A
// document that was cut short is an error.
func soakRows(format string, body []byte) ([][]string, error) {
	type jsonRow map[string]struct{ Value string }
	byVars := func(vars []string, r jsonRow) []string {
		row := make([]string, len(vars))
		for i, v := range vars {
			row[i] = r[v].Value
		}
		return row
	}
	var rows [][]string
	switch format {
	case "json":
		var doc struct {
			Head    struct{ Vars []string }
			Results *struct{ Bindings []jsonRow }
		}
		if err := json.Unmarshal(body, &doc); err != nil || doc.Results == nil {
			return nil, fmt.Errorf("json: incomplete document (%v)", err)
		}
		for _, r := range doc.Results.Bindings {
			rows = append(rows, byVars(doc.Head.Vars, r))
		}
	case "ndjson":
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		var headLine struct{ Vars []string }
		if err := json.Unmarshal(lines[0], &headLine); err != nil || headLine.Vars == nil {
			return nil, fmt.Errorf("ndjson: no head line (%v)", err)
		}
		for _, line := range lines[1:] {
			var r jsonRow
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("ndjson: %v in line %q", err, line)
			}
			if _, failed := r["error"]; failed {
				return nil, fmt.Errorf("ndjson: the stream failed: %s", line)
			}
			rows = append(rows, byVars(headLine.Vars, r))
		}
	case "csv":
		recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil || len(recs) == 0 {
			return nil, fmt.Errorf("csv: %v", err)
		}
		rows = recs[1:]
	case "tsv":
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		for _, line := range lines[1:] {
			row := strings.Split(line, "\t")
			for i, cell := range row {
				switch {
				case strings.HasPrefix(cell, "<"):
					row[i] = strings.Trim(cell, "<>")
				case strings.HasPrefix(cell, `"`):
					row[i] = cell[1 : 1+strings.IndexByte(cell[1:], '"')]
				}
			}
			rows = append(rows, row)
		}
	case "xml":
		var doc struct {
			Vars []struct {
				Name string `xml:"name,attr"`
			} `xml:"head>variable"`
			Results []struct {
				Bindings []struct {
					Name    string  `xml:"name,attr"`
					URI     *string `xml:"uri"`
					Literal *string `xml:"literal"`
				} `xml:"binding"`
			} `xml:"results>result"`
		}
		if err := xml.Unmarshal(body, &doc); err != nil {
			return nil, fmt.Errorf("xml: incomplete document (%v)", err)
		}
		for _, res := range doc.Results {
			row := make([]string, len(doc.Vars))
			for _, b := range res.Bindings {
				for i, v := range doc.Vars {
					if v.Name == b.Name && b.URI != nil {
						row[i] = *b.URI
					} else if v.Name == b.Name && b.Literal != nil {
						row[i] = *b.Literal
					}
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// soakDirect holds one snapshot across at least one later insert and
// checks what it may and may not know, then the term-level reads.
func soakDirect(be store.Backend, log *soakLog) error {
	r := be.Snapshot()
	if rel, ok := r.(interface{ Release() }); ok {
		defer rel.Release()
	}
	// Every operation above issued interns its terms after r was taken.
	issued, _ := log.marks()
	scan := func(r store.ReaderAPI) int {
		n := 0
		r.MatchIDs(store.IDPattern{}, func(_, _, _ store.ID) bool { n++; return true })
		return n
	}
	before := scan(r)
	if before%soakK != 0 || before != r.Len() {
		return fmt.Errorf("a snapshot holds %d triples (Len %d): not whole batches of %d", before, r.Len(), soakK)
	}

	log.mu.Lock()
	later := 0
	for !log.done && later == 0 {
		for n := log.acked; n > issued; n-- {
			if log.inserts[n] {
				later = n
				break
			}
		}
		if later == 0 {
			log.ack.Wait()
		}
	}
	log.mu.Unlock()
	if later == 0 {
		return nil // the soak ended first
	}
	subject := rdf.NewIRI(soakSubject(later, 0))
	if id := r.Lookup(subject); id != store.NoID {
		return fmt.Errorf("a snapshot taken before operation %d was issued resolves its subject to ID %d (MaxID %d)", later, id, r.MaxID())
	}
	if after := scan(r); after != before {
		return fmt.Errorf("a held snapshot went from %d to %d triples", before, after)
	}
	fresh := be.Snapshot()
	if rel, ok := fresh.(interface{ Release() }); ok {
		defer rel.Release()
	}
	if fresh.Lookup(subject) == store.NoID {
		return fmt.Errorf("a snapshot taken after operation %d was acknowledged does not know its subject", later)
	}

	// The term-level reads answer from one generation as well.
	if n := be.Cardinality(store.Pattern{}); n%soakK != 0 {
		return fmt.Errorf("Cardinality(???) = %d beside the writer: not whole batches of %d", n, soakK)
	}
	n := 0
	be.Match(store.Pattern{P: rdf.NewIRI(soakNS + "batch")}, func(rdf.Triple) bool { n++; return true })
	if n%soakSubjects != 0 {
		return fmt.Errorf("Match(? batch ?) counted %d triples beside the writer: not whole batches of %d", n, soakSubjects)
	}
	return nil
}
