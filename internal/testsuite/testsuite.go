// Package testsuite is the repo's manifest-driven SPARQL conformance
// suite: each case pairs a query file with a data file and the expected
// result, and every case runs through the single executor (as served:
// Query.Stream) and the term-space reference evaluator, so the semantics
// the suite pins cannot drift between them. The cases concentrate on what differential fuzzing is
// worst at judging: ORDER BY collation edge cases, aggregate corner
// cases, and the exact bytes of the wire serializations.
//
// The expected files are golden: regenerate with
//
//	HBOLD_TESTSUITE_UPDATE=1 go test ./internal/testsuite
//
// which rewrites them from the reference evaluator (the differential
// oracle) — then review the diff; the whole point of the
// ratchet is that these bytes only change deliberately.
package testsuite

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/sparql/reference"
	"repro/internal/sparql/results"
	"repro/internal/store"
	"repro/internal/turtle"
)

// Case is one conformance case. Paths are relative to the suite dir.
// The Expect extension selects the comparison: .tsv compares bindings
// (TSV-serialized, order-sensitive iff Ordered), .bool compares an ASK
// answer, and .csv/.xml/.json compare the exact bytes of the named
// serialization streamed from the engine.
type Case struct {
	Name    string `json:"name"`
	Data    string `json:"data"`
	Query   string `json:"query"`
	Expect  string `json:"expect"`
	Ordered bool   `json:"ordered"`
}

// LoadManifest reads dir/manifest.json.
func LoadManifest(dir string) ([]Case, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var cases []Case
	if err := json.Unmarshal(raw, &cases); err != nil {
		return nil, fmt.Errorf("testsuite: bad manifest: %w", err)
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if c.Name == "" || c.Data == "" || c.Query == "" || c.Expect == "" {
			return nil, fmt.Errorf("testsuite: case %+v: missing field", c)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("testsuite: duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return cases, nil
}

// RunDir loads the manifest in dir and runs every case as a subtest, so
// CI output names each case individually. Cases run on the in-memory
// store; golden updates (HBOLD_TESTSUITE_UPDATE=1) regenerate from this
// path only, keeping the reference tier canonical.
func RunDir(t *testing.T, dir string) {
	update := os.Getenv("HBOLD_TESTSUITE_UPDATE") != ""
	RunDirBackend(t, dir, update, func(t *testing.T, path string) store.Queryable {
		return loadStore(t, path)
	})
}

// RunDirBackend runs the suite with data files opened through an
// arbitrary storage tier. Any store.Queryable — in-memory or the disk
// backend — must produce byte-identical results on every engine, which
// is what makes this the conformance half of the tier differential.
func RunDirBackend(t *testing.T, dir string, update bool, open func(t *testing.T, path string) store.Queryable) {
	cases, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]store.Queryable{}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			st, ok := stores[c.Data]
			if !ok {
				st = open(t, filepath.Join(dir, c.Data))
				stores[c.Data] = st
			}
			runCase(t, dir, c, st, update)
		})
	}
}

func loadStore(t *testing.T, path string) *store.Store {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// the loader hbold sparqld runs: Each straight into Add, one Flush
	st := store.New()
	if err := turtle.Each(string(raw), func(tr rdf.Triple) { st.Add(tr) }); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	st.Flush()
	return st
}

// engineResults runs the query through the executor and the reference
// evaluator (update mode regenerates the golden files from the latter).
func engineResults(t *testing.T, q *sparql.Query, st store.Queryable) map[string]*sparql.Result {
	t.Helper()
	out := map[string]*sparql.Result{}
	rs, err := q.Stream(context.Background(), st)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	res, err := rs.Collect()
	if err != nil {
		t.Fatalf("stream collect: %v", err)
	}
	out["stream"] = res
	if res, err = reference.Exec(q, st); err != nil {
		t.Fatalf("reference: %v", err)
	}
	out["reference"] = res
	return out
}

func runCase(t *testing.T, dir string, c Case, st store.Queryable, update bool) {
	t.Helper()
	qraw, err := os.ReadFile(filepath.Join(dir, c.Query))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sparql.Parse(string(qraw))
	if err != nil {
		t.Fatalf("%s: %v", c.Query, err)
	}
	expectPath := filepath.Join(dir, c.Expect)
	ress := engineResults(t, q, st)

	var render func(*sparql.Result) string
	switch ext := filepath.Ext(c.Expect); ext {
	case ".bool":
		render = func(r *sparql.Result) string {
			if !r.Ask {
				t.Fatalf("%s: expected an ASK result", c.Name)
			}
			return fmt.Sprintf("%v\n", r.Boolean)
		}
	case ".tsv":
		render = func(r *sparql.Result) string {
			return canonicalTSV(t, r, c.Ordered)
		}
	case ".csv", ".xml", ".json":
		format := map[string]results.Format{
			".csv": results.CSV, ".xml": results.XML, ".json": results.JSON,
		}[ext]
		if !c.Ordered && len(q.OrderBy) > 0 {
			t.Fatalf("%s: serialization cases must be ordered for byte-stable goldens", c.Name)
		}
		render = func(r *sparql.Result) string {
			return serialize(t, format, r)
		}
	default:
		t.Fatalf("%s: unknown expect extension %q", c.Name, ext)
	}

	if update {
		if err := os.WriteFile(expectPath, []byte(render(ress["reference"])), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(expectPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"stream", "reference"} {
		if got := render(ress[engine]); got != string(want) {
			t.Errorf("%s/%s: result mismatch\n--- got ---\n%s--- want ---\n%s", c.Name, engine, got, want)
		}
	}
}

// canonicalTSV serializes a result's bindings as TSV. When the case is
// unordered the data lines are sorted, so any row order compares equal —
// the golden file stores the sorted form.
func canonicalTSV(t *testing.T, r *sparql.Result, ordered bool) string {
	t.Helper()
	doc := serialize(t, results.TSV, r)
	if ordered {
		return doc
	}
	head, rest, _ := strings.Cut(doc, "\n")
	lines := strings.Split(strings.TrimSuffix(rest, "\n"), "\n")
	if rest == "" {
		lines = nil
	}
	sort.Strings(lines)
	var sb strings.Builder
	sb.WriteString(head)
	sb.WriteByte('\n')
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// serialize writes the full results document for r in the given format,
// through the loop every serving surface uses.
func serialize(t *testing.T, f results.Format, r *sparql.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := results.Serve(&buf, f, sparql.ResultSeq(r)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
