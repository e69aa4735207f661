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
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"unicode/utf8"

	"repro/internal/rdf"
)

// JSONRowEncoder appends solution rows in the SPARQL JSON results term
// encoding ({"v": {"type": ..., "value": ...}, ...}) — the one encoder
// behind the JSON and NDJSON writers. The bytes
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
// time straight off the underlying reader into a positional row, so
// memory stays O(row) no matter how large the result is.
//
// The head names the columns, so it must come first: a document that
// opens its bindings before any head is an error, as is a head, results
// or bindings member after the bindings (encoding/json would take the
// last of duplicate members, and the rows have gone out by then). Other
// members after the bindings are skipped, and bytes after the document
// are not read.
type JSONRowReader struct {
	dec        *json.Decoder
	vars       []string
	cells      map[string]jsonTerm // the binding being decoded, reused
	head       bool                // a head member was read
	ask        bool                // a boolean member was read: an ASK result
	boolean    bool
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

// Vars returns the head's variable list (empty for ASK results): the
// columns of the rows Next fills.
func (jr *JSONRowReader) Vars() []string { return jr.vars }

// Ask returns the boolean of an ASK result and whether this is one.
func (jr *JSONRowReader) Ask() (value, ok bool) {
	return jr.boolean, jr.ask
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

// key reads the name of the next object member.
func (jr *JSONRowReader) key() (string, error) {
	tok, err := jr.dec.Token()
	if err != nil {
		return "", noEOF(err)
	}
	key, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("sparql: results document: unexpected token %v", tok)
	}
	return key, nil
}

// decode decodes the next value into v; a nil v skips it.
func (jr *JSONRowReader) decode(v any) error {
	if v == nil {
		v = new(json.RawMessage)
	}
	return noEOF(jr.dec.Decode(v))
}

func (jr *JSONRowReader) prologue() error {
	if err := expectDelim(jr.dec, '{'); err != nil {
		return err
	}
	for jr.dec.More() {
		key, err := jr.key()
		if err != nil {
			return err
		}
		switch key {
		case "head":
			var head struct {
				Vars []string `json:"vars"`
			}
			err = jr.decode(&head)
			jr.vars, jr.head = head.Vars, true
		case "boolean":
			err = jr.decode(&jr.boolean)
			jr.ask = true
		case "results":
			if err := expectDelim(jr.dec, '{'); err != nil {
				return err
			}
			for jr.dec.More() {
				rkey, err := jr.key()
				if err != nil {
					return err
				}
				if rkey == "bindings" {
					if !jr.head {
						return errors.New("sparql: results document: bindings before head (the head names the columns)")
					}
					jr.inBindings = true
					return expectDelim(jr.dec, '[')
				}
				if err := jr.decode(nil); err != nil {
					return err
				}
			}
			err = expectDelim(jr.dec, '}') // a results object with no bindings member
		default:
			err = jr.decode(nil)
		}
		if err != nil {
			return err
		}
	}
	jr.done = true
	return expectDelim(jr.dec, '}')
}

// Next decodes the next binding into row, which must hold len(Vars())
// terms: the cell of each head variable, the zero Term where the binding
// leaves it out. A cell whose variable is not in the head has no column
// and is dropped. Next returns io.EOF at the clean end of the document;
// any other error means the stream is broken (truncated body, malformed
// JSON, an invalid term) and no further rows can follow.
func (jr *JSONRowReader) Next(row []rdf.Term) error {
	if jr.done || !jr.inBindings {
		return io.EOF
	}
	if jr.dec.More() {
		clear(jr.cells)
		if err := jr.decode(&jr.cells); err != nil {
			return err
		}
		for i, v := range jr.vars {
			jt, ok := jr.cells[v]
			if !ok {
				row[i] = rdf.Term{}
				continue
			}
			t, err := termFromJSON(jt)
			if err != nil {
				return err
			}
			row[i] = t
		}
		return nil
	}
	// close the bindings array, then unwind the enclosing results object
	// and the document: a member there that would name other rows is an
	// error, any other is skipped
	if err := expectDelim(jr.dec, ']'); err != nil {
		return err
	}
	for _, again := range [2][]string{{"bindings"}, {"head", "results"}} {
		for jr.dec.More() {
			key, err := jr.key()
			if err != nil {
				return err
			}
			if slices.Contains(again, key) {
				return fmt.Errorf("sparql: results document: a second %q member after the bindings", key)
			}
			if err := jr.decode(nil); err != nil {
				return err
			}
		}
		if err := expectDelim(jr.dec, '}'); err != nil {
			return err
		}
	}
	jr.done = true
	return io.EOF
}
