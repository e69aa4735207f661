package sparql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// jsonTerm is one RDF term in the SPARQL 1.1 Query Results JSON Format,
// which is what real endpoints return and what the endpoint client
// parses (streamjson.go holds the row encoder and the document reader).
type jsonTerm struct {
	Type     string `json:"type"` // "uri" | "literal" | "bnode"
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

func termFromJSON(jt jsonTerm) (rdf.Term, error) {
	switch jt.Type {
	case "uri":
		return rdf.NewIRI(jt.Value), nil
	case "bnode":
		return rdf.NewBlank(jt.Value), nil
	case "literal", "typed-literal":
		if jt.Lang != "" {
			return rdf.NewLangLiteral(jt.Value, jt.Lang), nil
		}
		return rdf.NewTypedLiteral(jt.Value, jt.Datatype), nil
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown JSON term type %q", jt.Type)
	}
}

// Table renders the result as an aligned text table for CLI output.
func (r *Result) Table() string {
	if r.Ask {
		return fmt.Sprintf("ASK → %v\n", r.Boolean)
	}
	widths := make([]int, len(r.Vars))
	cells := make([][]string, 0, len(r.Rows)+1)
	head := make([]string, len(r.Vars))
	for i, v := range r.Vars {
		head[i] = "?" + v
		widths[i] = len(head[i])
	}
	cells = append(cells, head)
	for _, row := range r.Rows {
		line := make([]string, len(r.Vars))
		for i, v := range r.Vars {
			if t, ok := row[v]; ok {
				line[i] = t.String()
			}
			if len(line[i]) > widths[i] {
				widths[i] = len(line[i])
			}
		}
		cells = append(cells, line)
	}
	var sb strings.Builder
	for _, line := range cells {
		for i, c := range line {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SortedRows returns the rows sorted by their canonical key; useful for
// deterministic assertions in tests.
func (r *Result) SortedRows() []Binding {
	rows := make([]Binding, len(r.Rows))
	copy(rows, r.Rows)
	sort.Slice(rows, func(i, j int) bool {
		return BindingKey(rows[i], r.Vars) < BindingKey(rows[j], r.Vars)
	})
	return rows
}
