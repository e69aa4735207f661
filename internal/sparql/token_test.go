package sparql

import (
	"strings"
	"testing"
	"unsafe"
)

// TestLexStringSlicesEscapeFreeLiterals: a literal without a backslash
// is a substring of the source, one with an escape is rebuilt, and both
// carry the values and line numbers the lexer has always given them,
// error lines included.
func TestLexStringSlicesEscapeFreeLiterals(t *testing.T) {
	cases := []struct {
		src, text string
		line      int
		sliced    bool
	}{
		{`"plain"`, "plain", 1, true},
		{`'single'`, "single", 1, true},
		{`""`, "", 1, true},
		{`"it's"`, "it's", 1, true},
		{`"a\"b"`, `a"b`, 1, false},
		{`"tab\tendé"`, "tab\tendé", 1, false},
		{"\"\"\"two\nlines\"\"\"", "two\nlines", 2, true},
		{"'''x\n\\n'y'\n'''", "x\n\n'y'\n", 3, false},
	}
	for _, c := range cases {
		full := c.src + " ?v"
		toks, err := lex(full)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		tok := toks[0]
		if tok.kind != tokString || tok.text != c.text || tok.line != c.line {
			t.Errorf("%s: token %q on line %d, want %q on line %d", c.src, tok.text, tok.line, c.text, c.line)
		}
		if toks[1].line != c.line {
			t.Errorf("%s: the next token is on line %d, want %d", c.src, toks[1].line, c.line)
		}
		if c.text == "" {
			continue
		}
		at := uintptr(unsafe.Pointer(unsafe.StringData(tok.text))) - uintptr(unsafe.Pointer(unsafe.StringData(full)))
		if sliced := at < uintptr(len(full)); sliced != c.sliced {
			t.Errorf("%s: sliced from the source %v, want %v", c.src, sliced, c.sliced)
		}
	}

	for _, c := range []struct{ src, err string }{
		{`"open`, "line 1: unterminated string"},
		{"\"a\nb\"", "line 1: newline in string"},
		{"'''a\nb", "line 2: unterminated long string"},
		{"'''a\nb\\", "line 2: dangling escape"},
		{`"a\q"`, "line 1: "},
	} {
		if _, err := lex(c.src); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%q: error %v, want one containing %q", c.src, err, c.err)
		}
	}
}
