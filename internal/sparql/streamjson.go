package sparql

// Incremental encoding and decoding of the SPARQL 1.1 Query Results JSON
// Format — the only codec of that format in the repo. The row encoder
// and the reader move one binding at a time, which is what lets the
// protocol server flush rows as they are produced (results.Writer frames
// the encoder's rows into a document) and the HTTP client hand rows to
// the application while the response body is still arriving; a caller
// that wants the whole result collects the reader's rows.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"unicode/utf8"

	"repro/internal/rdf"
)

// MarshalJSON encodes one solution binding in the SPARQL JSON results
// term encoding, through the row encoder.
func (b Binding) MarshalJSON() ([]byte, error) {
	vars, row := make([]string, 0, len(b)), make([]rdf.Term, 0, len(b))
	for v, t := range b {
		vars, row = append(vars, v), append(row, t)
	}
	return NewJSONRowEncoder(vars).AppendRow(nil, row), nil
}

// UnmarshalJSON decodes one solution binding from the SPARQL JSON
// results term encoding.
func (b *Binding) UnmarshalJSON(data []byte) error {
	var jb map[string]jsonTerm
	if err := json.Unmarshal(data, &jb); err != nil {
		return err
	}
	out := make(Binding, len(jb))
	for v, jt := range jb {
		t, err := termFromJSON(jt)
		if err != nil {
			return err
		}
		out[v] = t
	}
	*b = out
	return nil
}

// JSONRowEncoder appends solution rows in the SPARQL JSON results term
// encoding ({"v": {"type": ..., "value": ...}, ...}) — the one encoder
// behind the JSON and NDJSON writers and Binding.MarshalJSON. The bytes
// are encoding/json's for a map of terms: members in sorted-name order
// (the permutation and the quoted names are computed once per document),
// strings escaped as appendJSONString does.
type JSONRowEncoder struct {
	keys []string // `"name":` per member, in sorted-name order
	cols []int    // the row column keys[i] reads
}

// NewJSONRowEncoder prepares the encoder for rows aligned with vars.
func NewJSONRowEncoder(vars []string) *JSONRowEncoder {
	cols := make([]int, len(vars))
	for i := range cols {
		cols[i] = i
	}
	sort.SliceStable(cols, func(a, b int) bool { return vars[cols[a]] < vars[cols[b]] })
	e := &JSONRowEncoder{}
	for i, c := range cols {
		if i > 0 && vars[c] == vars[cols[i-1]] {
			continue // a name projected twice is one member
		}
		e.cols = append(e.cols, c)
		e.keys = append(e.keys, string(append(appendJSONString(nil, vars[c]), ':')))
	}
	return e
}

// AppendRow appends one row's JSON object to dst; zero Terms (unbound
// variables) are left out.
func (e *JSONRowEncoder) AppendRow(dst []byte, row []rdf.Term) []byte {
	dst = append(dst, '{')
	sep := false
	for i, c := range e.cols {
		t := row[c]
		if t.IsZero() {
			continue
		}
		if sep {
			dst = append(dst, ',')
		}
		sep = true
		dst = append(dst, e.keys[i]...)
		switch t.Kind {
		case rdf.KindIRI:
			dst = append(dst, `{"type":"uri","value":`...)
		case rdf.KindBlank:
			dst = append(dst, `{"type":"bnode","value":`...)
		default:
			dst = append(dst, `{"type":"literal","value":`...)
		}
		dst = appendJSONString(dst, t.Value)
		if t.Kind == rdf.KindLiteral && t.Datatype != "" {
			dst = appendJSONString(append(dst, `,"datatype":`...), t.Datatype)
		}
		if t.Kind == rdf.KindLiteral && t.Lang != "" {
			dst = appendJSONString(append(dst, `,"xml:lang":`...), t.Lang)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// marshals one: control bytes, `"` and `\` escaped, `<`, `>`, `&`,
// U+2028 and U+2029 as \u escapes, invalid UTF-8 as \ufffd. FuzzRowJSON
// holds it to that byte for byte.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= 0x20 && b < utf8.RuneSelf && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		c, size := rune(b), 1
		if b >= utf8.RuneSelf {
			if c, size = utf8.DecodeRuneInString(s[i:]); !(c == utf8.RuneError && size == 1) && c != '\u2028' && c != '\u2029' {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		case utf8.RuneError:
			dst = append(dst, `\ufffd`...)
		default: // the remaining control bytes, < > &, U+2028/9
			dst = append(dst, '\\', 'u', hex[c>>12], hex[c>>8&0xF], hex[c>>4&0xF], hex[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// WriteAskJSON writes a complete ASK results document.
func WriteAskJSON(w io.Writer, value bool) error {
	_, err := fmt.Fprintf(w, `{"head":{},"boolean":%v}`, value)
	return err
}

// JSONRowReader decodes a SPARQL JSON results document token-wise: the
// head is parsed on construction, then Next decodes one binding at a
// time straight off the underlying reader, so memory stays O(row) no
// matter how large the result is.
type JSONRowReader struct {
	dec        *json.Decoder
	vars       []string
	boolean    *bool
	inBindings bool
	done       bool
}

// NewJSONRowReader consumes the document prologue (everything up to the
// first binding, or the whole document for ASK results) and returns a
// reader positioned on the binding stream.
func NewJSONRowReader(r io.Reader) (*JSONRowReader, error) {
	jr := &JSONRowReader{dec: json.NewDecoder(r)}
	if err := jr.prologue(); err != nil {
		return nil, err
	}
	return jr, nil
}

// Vars returns the head's variable list (empty for ASK results, and for
// malformed documents that open the bindings before any head).
func (jr *JSONRowReader) Vars() []string { return jr.vars }

// Ask returns the boolean of an ASK result and whether this is one.
func (jr *JSONRowReader) Ask() (value, ok bool) {
	if jr.boolean == nil {
		return false, false
	}
	return *jr.boolean, true
}

func expectDelim(dec *json.Decoder, d json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return noEOF(err)
	}
	if got, ok := tok.(json.Delim); !ok || got != d {
		return fmt.Errorf("sparql: results document: expected %q, got %v", d.String(), tok)
	}
	return nil
}

// noEOF converts a bare io.EOF from the decoder into ErrUnexpectedEOF:
// inside a document, running out of bytes is always a truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (jr *JSONRowReader) prologue() error {
	if err := expectDelim(jr.dec, '{'); err != nil {
		return err
	}
	for jr.dec.More() {
		tok, err := jr.dec.Token()
		if err != nil {
			return noEOF(err)
		}
		key, ok := tok.(string)
		if !ok {
			return fmt.Errorf("sparql: results document: unexpected token %v", tok)
		}
		switch key {
		case "head":
			var head struct {
				Vars []string `json:"vars"`
			}
			if err := jr.dec.Decode(&head); err != nil {
				return noEOF(err)
			}
			jr.vars = head.Vars
		case "boolean":
			var b bool
			if err := jr.dec.Decode(&b); err != nil {
				return noEOF(err)
			}
			jr.boolean = &b
		case "results":
			if err := expectDelim(jr.dec, '{'); err != nil {
				return err
			}
			for jr.dec.More() {
				tok, err := jr.dec.Token()
				if err != nil {
					return noEOF(err)
				}
				rkey, ok := tok.(string)
				if !ok {
					return fmt.Errorf("sparql: results document: unexpected token %v", tok)
				}
				if rkey == "bindings" {
					if err := expectDelim(jr.dec, '['); err != nil {
						return err
					}
					jr.inBindings = true
					return nil
				}
				var skip json.RawMessage
				if err := jr.dec.Decode(&skip); err != nil {
					return noEOF(err)
				}
			}
			// results object with no bindings member
			if err := expectDelim(jr.dec, '}'); err != nil {
				return err
			}
		default:
			var skip json.RawMessage
			if err := jr.dec.Decode(&skip); err != nil {
				return noEOF(err)
			}
		}
	}
	if err := expectDelim(jr.dec, '}'); err != nil {
		return err
	}
	jr.done = true
	return nil
}

// Next decodes the next binding. It returns io.EOF at the clean end of
// the document; any other error means the stream is broken (truncated
// body, malformed JSON, an invalid term) and no further rows can follow.
func (jr *JSONRowReader) Next() (Binding, error) {
	if jr.done || !jr.inBindings {
		return nil, io.EOF
	}
	if jr.dec.More() {
		var b Binding
		if err := jr.dec.Decode(&b); err != nil {
			return nil, noEOF(err)
		}
		return b, nil
	}
	// close the bindings array, then unwind the enclosing results object
	// and the document, tolerating (and skipping) any trailing members
	if err := expectDelim(jr.dec, ']'); err != nil {
		return nil, err
	}
	for depth := 2; depth > 0; {
		tok, err := jr.dec.Token()
		if err != nil {
			return nil, noEOF(err)
		}
		switch t := tok.(type) {
		case json.Delim:
			if t == '}' {
				depth--
				continue
			}
			return nil, fmt.Errorf("sparql: results document: unexpected %v", t)
		case string:
			var skip json.RawMessage
			if err := jr.dec.Decode(&skip); err != nil {
				return nil, noEOF(err)
			}
		default:
			return nil, fmt.Errorf("sparql: results document: unexpected token %v", tok)
		}
	}
	jr.done = true
	return nil, io.EOF
}
