package results

// The tabular serializations. CSV (SPARQL 1.1 Query Results CSV Format)
// carries plain lexical values — IRIs bare, literals as their lexical
// form, `_:label` blank nodes — with RFC 4180 quoting, so it loses type
// information but opens in anything. TSV keeps full fidelity: terms are
// written in SPARQL surface syntax (<iri>, "literal"^^<dt>, "lit"@lang)
// with tab/newline/backslash escapes inside quoted literals, one row per
// line. Both append each row to the writer's buffer; an unbound variable
// is an empty field.

import (
	"strings"

	"repro/internal/rdf"
)

// The CSV field encoding is hand-rolled rather than encoding/csv:
// csv.Writer normalizes line endings inside quoted fields (a lone \r is
// dropped, \n becomes \r\n under UseCRLF), but a results serialization
// must reproduce literal values byte-for-byte.

func appendCSVHead(b []byte, vars []string) []byte {
	for i, v := range vars {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCSVField(b, "", v)
	}
	return append(b, "\r\n"...)
}

// appendCSVField appends prefix+s as one RFC 4180 field: quoted (with
// doubled quotes) only when s contains a separator, quote or line break.
// No prefix in use holds one.
func appendCSVField(b []byte, prefix, s string) []byte {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return append(append(b, prefix...), s...)
	}
	b = append(append(b, '"'), prefix...)
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, s[i])
	}
	return append(b, '"')
}

// appendCSVRow appends one row: each term as its raw value, no angle
// brackets, quotes or datatype — blank nodes keep their _: prefix so they
// remain distinguishable from plain literals.
func appendCSVRow(b []byte, row []rdf.Term) []byte {
	for i, t := range row {
		if i > 0 {
			b = append(b, ',')
		}
		if t.Kind == rdf.KindBlank {
			b = appendCSVField(b, "_:", t.Value)
		} else {
			b = appendCSVField(b, "", t.Value)
		}
	}
	return append(b, "\r\n"...)
}

func appendTSVHead(b []byte, vars []string) []byte {
	for i, v := range vars {
		if i > 0 {
			b = append(b, '\t')
		}
		b = append(append(b, '?'), v...)
	}
	return append(b, '\n')
}

// appendTSVRow appends one row, each term in the SPARQL surface syntax
// TSV carries; inside a quoted literal the characters that would break
// the row/field structure (or the literal) become backslash escapes.
func appendTSVRow(b []byte, row []rdf.Term) []byte {
	for i, t := range row {
		if i > 0 {
			b = append(b, '\t')
		}
		switch t.Kind {
		case rdf.KindInvalid:
		case rdf.KindIRI:
			b = append(append(append(b, '<'), t.Value...), '>')
		case rdf.KindBlank:
			b = append(append(b, "_:"...), t.Value...)
		default:
			b = append(b, '"')
			for j := 0; j < len(t.Value); j++ {
				switch c := t.Value[j]; c {
				case '\\', '"':
					b = append(b, '\\', c)
				case '\t':
					b = append(b, '\\', 't')
				case '\n':
					b = append(b, '\\', 'n')
				case '\r':
					b = append(b, '\\', 'r')
				default:
					b = append(b, c)
				}
			}
			b = append(b, '"')
			if t.Lang != "" {
				b = append(append(b, '@'), t.Lang...)
			} else if t.Datatype != "" {
				b = append(append(append(b, "^^<"...), t.Datatype...), '>')
			}
		}
	}
	return append(b, '\n')
}
