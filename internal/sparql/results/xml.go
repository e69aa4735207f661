package results

// The SPARQL Query Results XML Format. Like the JSON writer, the
// document is emitted incrementally — prolog and head on construction,
// one <result> element per row, the closing tags on Close — so a
// truncated document (missing </sparql>) is the in-band signal of a
// producer that died mid-stream. All character content and attribute
// values are escaped as encoding/xml's EscapeText escapes them.

import (
	"unicode/utf8"

	"repro/internal/rdf"
)

const xmlProlog = `<?xml version="1.0"?>` + "\n" +
	`<sparql xmlns="http://www.w3.org/2005/sparql-results#">`

func appendXMLHead(b []byte, vars []string) []byte {
	b = append(append(b, xmlProlog...), "<head>"...)
	for _, v := range vars {
		b = append(appendXMLText(append(b, `<variable name="`...), v), `"/>`...)
	}
	return append(b, "</head><results>"...)
}

// appendXMLRow appends one <result>: a <binding> per bound variable, in
// head order like the other writers, so documents are deterministic.
func appendXMLRow(b []byte, vars []string, row []rdf.Term) []byte {
	b = append(b, "<result>"...)
	for i, t := range row {
		if t.IsZero() {
			continue
		}
		b = append(appendXMLText(append(b, `<binding name="`...), vars[i]), `">`...)
		switch t.Kind {
		case rdf.KindIRI:
			b = append(appendXMLText(append(b, "<uri>"...), t.Value), "</uri>"...)
		case rdf.KindBlank:
			b = append(appendXMLText(append(b, "<bnode>"...), t.Value), "</bnode>"...)
		default:
			switch {
			case t.Lang != "":
				b = append(appendXMLText(append(b, `<literal xml:lang="`...), t.Lang), `">`...)
			case t.Datatype != "":
				b = append(appendXMLText(append(b, `<literal datatype="`...), t.Datatype), `">`...)
			default:
				b = append(b, "<literal>"...)
			}
			b = append(appendXMLText(b, t.Value), "</literal>"...)
		}
		b = append(b, "</binding>"...)
	}
	return append(b, "</result>"...)
}

// appendXMLText appends s escaped for character content and attribute
// values alike, byte for byte what xml.EscapeText writes: the five
// markup characters and tab, newline and carriage return as references,
// anything outside XML's character range (and invalid UTF-8) as U+FFFD.
func appendXMLText(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if c := s[i]; c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\'' && c != '&' && c != '<' && c != '>' {
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch {
		case r == '"':
			esc = "&#34;"
		case r == '\'':
			esc = "&#39;"
		case r == '&':
			esc = "&amp;"
		case r == '<':
			esc = "&lt;"
		case r == '>':
			esc = "&gt;"
		case r == '\t':
			esc = "&#x9;"
		case r == '\n':
			esc = "&#xA;"
		case r == '\r':
			esc = "&#xD;"
		case r < 0x20, r == 0xFFFE, r == 0xFFFF, r == utf8.RuneError && width == 1:
			esc = "\uFFFD"
		default:
			i += width
			continue
		}
		b = append(append(b, s[last:i]...), esc...)
		i += width
		last = i
	}
	return append(b, s[last:]...)
}
