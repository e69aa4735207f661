package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

// rowHasher folds result rows into an order-insensitive checksum: the
// FNV-64a of each row's canonical text, summed. The in-process oracle and
// the HTTP decoders feed it the same (var, type, value, datatype, lang)
// tuples, so equal multisets of rows give equal sums whatever the order.
type rowHasher struct {
	sum  uint64
	rows int
	vars []string
	buf  []byte
}

func (h *rowHasher) reset() { h.sum, h.rows = 0, 0 }

// term appends one binding to the current row.
func (h *rowHasher) term(name, typ, value, datatype, lang string) {
	h.buf = append(h.buf, name...)
	h.buf = append(h.buf, 0)
	h.buf = append(h.buf, typ...)
	h.buf = append(h.buf, 0)
	h.buf = append(h.buf, value...)
	h.buf = append(h.buf, 0)
	h.buf = append(h.buf, datatype...)
	h.buf = append(h.buf, 0)
	h.buf = append(h.buf, lang...)
	h.buf = append(h.buf, 1)
}

func (h *rowHasher) endRow() {
	f := fnv.New64a()
	f.Write(h.buf)
	h.sum += f.Sum64()
	h.rows++
	h.buf = h.buf[:0]
}

func jsonType(k rdf.TermKind) string {
	switch k {
	case rdf.KindIRI:
		return "uri"
	case rdf.KindBlank:
		return "bnode"
	default:
		return "literal"
	}
}

// addBinding folds one in-process solution.
func (h *rowHasher) addBinding(b sparql.Binding) {
	names := h.vars[:0]
	for v := range b {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		t := b[v]
		h.term(v, jsonType(t.Kind), t.Value, t.Datatype, t.Lang)
	}
	h.vars = names
	h.endRow()
}

// expect fills a query's expectations by running it in-process on the
// memory-tier mirror of its dataset.
func (q *query) expect() error {
	res, err := sparql.Exec(q.ds.st, q.text)
	if err != nil {
		return fmt.Errorf("oracle: %s: %w", q.text, err)
	}
	var h rowHasher
	for _, row := range res.Rows {
		h.addBinding(row)
	}
	q.rows, q.sum = h.rows, h.sum
	switch {
	case q.limit < 0:
		q.determined = true
	case !q.order:
		// a bare LIMIT keeps whichever rows the engine meets first; only an
		// answer that fits under it whole is determined
		q.determined = q.rows < q.limit
	default:
		// ORDER BY + LIMIT is determined unless rows tie across the cut
		// (the pool's ordered queries all sort on ?v alone)
		q.determined = true
		if q.rows == q.limit {
			wider := strings.Replace(q.text, fmt.Sprintf("LIMIT %d", q.limit), fmt.Sprintf("LIMIT %d", q.limit+1), 1)
			more, err := sparql.Exec(q.ds.st, wider)
			if err != nil {
				return err
			}
			if len(more.Rows) > q.limit && more.Rows[q.limit]["v"] == more.Rows[q.limit-1]["v"] {
				q.determined = false
			}
		}
	}
	return nil
}

// expectAll fills every pooled query; it runs before any server starts.
func (p *pool) expectAll() error {
	for k := range p.queries {
		for _, q := range p.queries[k] {
			if err := q.expect(); err != nil {
				return err
			}
		}
	}
	return nil
}

// checks counts, per category, how often each kind of verification ran
// and how often it failed. A run whose workload should exercise a
// category that never ran exits non-zero: a silent oracle is no oracle.
type checks struct {
	ran, failed map[string]int
	firstErr    map[string]string
}

func newChecks() *checks {
	return &checks{ran: map[string]int{}, failed: map[string]int{}, firstErr: map[string]string{}}
}

func (c *checks) note(category string, err error) {
	c.ran[category]++
	if err != nil {
		c.failed[category]++
		if _, seen := c.firstErr[category]; !seen {
			c.firstErr[category] = err.Error()
		}
	}
}

func (c *checks) merge(o *checks) {
	for k, v := range o.ran {
		c.ran[k] += v
	}
	for k, v := range o.failed {
		c.failed[k] += v
	}
	for k, v := range o.firstErr {
		if _, seen := c.firstErr[k]; !seen {
			c.firstErr[k] = v
		}
	}
}

// Check categories.
const (
	chkRows      = "row_count"
	chkSum       = "row_checksum"
	chkFormatCSV = "format_csv"
	chkFormatTSV = "format_tsv"
	chkFormatXML = "format_xml"
	chkViewJSON  = "view_json"
	chkViewSVG   = "view_svg"
	chkViewBytes = "view_byte_stable"
	chk304       = "view_304"
	chkDelta     = "update_delta"
	chkRYW       = "read_your_write"
	chkDurable   = "durability_restart"
)

type jsonTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype"`
	Lang     string `json:"xml:lang"`
}

type jsonResults struct {
	Head    struct{ Vars []string } `json:"head"`
	Results *struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results"`
}

func (h *rowHasher) addJSONRow(row map[string]jsonTerm) {
	names := h.vars[:0]
	for v := range row {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		t := row[v]
		h.term(v, t.Type, t.Value, t.Datatype, t.Lang)
	}
	h.vars = names
	h.endRow()
}

// decode parses a query response body in the given framing and folds its
// rows into h. A body that does not parse to completion is an error: the
// servers signal a mid-stream failure by leaving the document open.
func (h *rowHasher) decode(framing string, body []byte) error {
	h.reset()
	switch framing {
	case "json":
		var doc jsonResults
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("results json: %w", err)
		}
		if doc.Results == nil {
			return errors.New("results json: no results member")
		}
		for _, row := range doc.Results.Bindings {
			h.addJSONRow(row)
		}
	case "ndjson":
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(nil, 1<<20)
		first := true
		for sc.Scan() {
			line := sc.Bytes()
			if first {
				var head struct{ Vars []string }
				if err := json.Unmarshal(line, &head); err != nil || head.Vars == nil {
					return fmt.Errorf("ndjson head %q: %v", line, err)
				}
				first = false
				continue
			}
			var row map[string]jsonTerm
			if err := json.Unmarshal(line, &row); err != nil {
				return fmt.Errorf("ndjson row: %w", err)
			}
			if _, bad := row["error"]; bad {
				return fmt.Errorf("ndjson error trailer: %s", line)
			}
			h.addJSONRow(row)
		}
		if first {
			return errors.New("ndjson: empty body")
		}
	case "csv":
		r := csv.NewReader(bytes.NewReader(body))
		recs, err := r.ReadAll()
		if err != nil {
			return fmt.Errorf("results csv: %w", err)
		}
		if len(recs) == 0 {
			return errors.New("results csv: no header")
		}
		h.rows = len(recs) - 1
	case "tsv":
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		if len(lines) == 0 || !strings.HasPrefix(lines[0], "?") {
			return errors.New("results tsv: no header")
		}
		cols := strings.Count(lines[0], "\t")
		for _, l := range lines[1:] {
			if strings.Count(l, "\t") != cols {
				return fmt.Errorf("results tsv: row %q has the wrong field count", l)
			}
		}
		h.rows = len(lines) - 1
	case "xml":
		dec := xml.NewDecoder(bytes.NewReader(body))
		depth, closed := 0, false
		for {
			tok, err := dec.Token()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("results xml: %w", err)
			}
			switch t := tok.(type) {
			case xml.StartElement:
				depth++
				if t.Name.Local == "result" {
					h.rows++
				}
			case xml.EndElement:
				depth--
				if depth == 0 && t.Name.Local == "sparql" {
					closed = true
				}
			}
		}
		if !closed {
			return errors.New("results xml: document not terminated")
		}
	default:
		return fmt.Errorf("unknown framing %q", framing)
	}
	return nil
}

// rowsOK reports whether n rows is a right answer. Read-only, the oracle's
// count is exact. Under writers a LIMIT read over a write class whose
// corpus instances do not fill the LIMIT may see writers' instances too:
// never fewer rows than the corpus holds, never more than the LIMIT.
func (q *query) rowsOK(n int, rw bool) bool {
	if !rw || !q.writes || q.limit >= 0 && q.rows == q.limit {
		return n == q.rows
	}
	return n >= q.rows && (q.limit < 0 || n <= q.limit)
}

// castagnoli is the CRC the verdict caches key on: hardware-accelerated,
// so recognising bytes already verified costs a fraction of parsing them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// verdictKey addresses one (query, framing) pair in a client's cache.
type verdictKey struct {
	q       *query
	framing string
}

// formatChecks maps a framing to its parse-back check category.
var formatChecks = map[string]string{"csv": chkFormatCSV, "tsv": chkFormatTSV, "xml": chkFormatXML}

// verifyQuery checks one query response against the oracle. rw reports
// whether writers run beside the reads. passed remembers, per (query,
// framing), the CRC of the last body that passed every check: the same
// bytes get the same verdict without being parsed again, which keeps the
// harness from spending more CPU reading an answer than the server spent
// producing it (the two share this machine's two cores).
func (c *checks) verifyQuery(h *rowHasher, q *query, framing string, body []byte, rw bool, passed map[verdictKey]uint32) bool {
	key, crc := verdictKey{q, framing}, crc32.Checksum(body, castagnoli)
	sumChecked := q.determined && !(rw && q.writes) && (framing == "json" || framing == "ndjson")
	if prev, seen := passed[key]; seen && prev == crc {
		if fc := formatChecks[framing]; fc != "" {
			c.note(fc, nil)
		}
		c.note(chkRows, nil)
		if sumChecked {
			c.note(chkSum, nil)
		}
		return true
	}
	ok := true
	err := h.decode(framing, body)
	if fc := formatChecks[framing]; fc != "" {
		c.note(fc, err)
	}
	if err != nil {
		c.note(chkRows, err)
		return false
	}
	var rerr error
	if !q.rowsOK(h.rows, rw) {
		rerr = fmt.Errorf("%s: %d rows, oracle has %d (limit %d): %s", q.kind, h.rows, q.rows, q.limit, q.text)
	}
	c.note(chkRows, rerr)
	ok = ok && rerr == nil
	if sumChecked {
		var serr error
		if h.sum != q.sum {
			serr = fmt.Errorf("%s: row checksum %x, oracle has %x: %s", q.kind, h.sum, q.sum, q.text)
		}
		c.note(chkSum, serr)
		ok = ok && serr == nil
	}
	if ok {
		passed[key] = crc
	}
	return ok
}
