package sparql

// Incremental encoding and decoding of the SPARQL 1.1 Query Results JSON
// Format — the only codec of that format in the repo. The writer and
// reader move one binding at a time, which is what lets the protocol
// server flush rows as they are produced and the HTTP client hand rows to
// the application while the response body is still arriving; a caller
// that wants the whole result collects the reader's rows.

import (
	"encoding/json"
	"fmt"
	"io"
)

// MarshalJSON encodes one solution binding in the SPARQL JSON results
// term encoding ({"v": {"type": ..., "value": ...}, ...}).
func (b Binding) MarshalJSON() ([]byte, error) {
	jb := make(map[string]jsonTerm, len(b))
	for v, t := range b {
		jb[v] = termToJSON(t)
	}
	return json.Marshal(jb)
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

// JSONRowWriter writes a SPARQL JSON results document incrementally:
// the head is emitted on construction, each WriteRow appends one
// binding, and Close terminates the document. Nothing is buffered
// beyond the row being encoded.
type JSONRowWriter struct {
	w    io.Writer
	rows int
	err  error
}

// NewJSONRowWriter starts a SELECT results document with the given head.
func NewJSONRowWriter(w io.Writer, vars []string) *JSONRowWriter {
	jw := &JSONRowWriter{w: w}
	head, err := json.Marshal(vars)
	if err == nil {
		_, err = fmt.Fprintf(w, `{"head":{"vars":%s},"results":{"bindings":[`, head)
	}
	jw.err = err
	return jw
}

// WriteRow appends one binding to the document.
func (jw *JSONRowWriter) WriteRow(b Binding) error {
	if jw.err != nil {
		return jw.err
	}
	enc, err := b.MarshalJSON()
	if err != nil {
		jw.err = err
		return err
	}
	if jw.rows > 0 {
		if _, err := io.WriteString(jw.w, ","); err != nil {
			jw.err = err
			return err
		}
	}
	if _, err := jw.w.Write(enc); err != nil {
		jw.err = err
		return err
	}
	jw.rows++
	return nil
}

// Close terminates the document. An unterminated document (Close never
// called, e.g. because the producer died mid-stream) is how a peer
// detects a broken stream: the JSON fails to parse to completion.
func (jw *JSONRowWriter) Close() error {
	if jw.err != nil {
		return jw.err
	}
	_, jw.err = io.WriteString(jw.w, "]}}")
	return jw.err
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
