package svg

import (
	"strings"
	"testing"
)

func TestDocStructure(t *testing.T) {
	d := New(200, 100)
	d.Rect(0, 0, 10, 10, "red", "none")
	d.Circle(50, 50, 5, "blue", "black")
	d.Line(0, 0, 10, 10, "#333", 2)
	d.Text(5, 5, 12, "middle", "#000", "hello")
	d.Path("M 0 0 L 10 10", "none", "green", 1)
	d.Polyline([]float64{0, 0, 5, 5, 10, 0}, "purple", 1)
	d.Comment("note")
	out := string(d.Bytes())
	for _, want := range []string{
		`<svg xmlns="http://www.w3.org/2000/svg" width="200.00" height="100.00"`,
		"<rect", "<circle", "<line", "<text", "<path", "<polyline",
		"<!-- note -->", "</svg>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestEscaping(t *testing.T) {
	d := New(10, 10)
	d.Text(0, 0, 10, "start", "#000", `<b>&"x"`)
	out := string(d.Bytes())
	if strings.Contains(out, `<b>`) {
		t.Fatal("text content not escaped")
	}
	if !strings.Contains(out, "&lt;b&gt;&amp;&quot;x&quot;") {
		t.Fatalf("escaping wrong: %s", out)
	}
}

func TestAttrPairs(t *testing.T) {
	d := New(10, 10)
	d.Rect(0, 0, 1, 1, "red", "none", "data-x", "1", "data-y", "two")
	out := string(d.Bytes())
	if !strings.Contains(out, `data-x="1"`) || !strings.Contains(out, `data-y="two"`) {
		t.Fatalf("attrs missing: %s", out)
	}
}

func TestCommentSanitized(t *testing.T) {
	d := New(10, 10)
	d.Comment("a--b")
	if strings.Contains(string(d.Bytes()), "a--b") {
		t.Fatal("double dash must be sanitized inside comments")
	}
}

func TestArcLargeFlag(t *testing.T) {
	d := New(100, 100)
	d.Arc(50, 50, 0, 6.0, 10, 20, "red", "none") // > π → large-arc flag 1
	small := New(100, 100)
	small.Arc(50, 50, 0, 1.0, 10, 20, "red", "none")
	if !strings.Contains(string(d.Bytes()), " 1 1 ") {
		t.Fatal("large arc flag not set")
	}
	if strings.Contains(string(small.Bytes()), " 0 1 1 ") && !strings.Contains(string(small.Bytes()), " 0 0 1 ") {
		t.Fatal("small arc should not set large flag")
	}
}

func TestColorCycles(t *testing.T) {
	if Color(0) != Palette[0] {
		t.Fatal("Color(0) wrong")
	}
	if Color(len(Palette)) != Palette[0] {
		t.Fatal("Color must cycle")
	}
	if Color(-1) != Palette[len(Palette)-1] {
		t.Fatal("negative index must wrap")
	}
}

func TestLighten(t *testing.T) {
	if got := Lighten("#000000", 1); got != "#ffffff" {
		t.Fatalf("Lighten black fully = %s", got)
	}
	if got := Lighten("#ff0000", 0); got != "#ff0000" {
		t.Fatalf("Lighten by 0 = %s", got)
	}
	if got := Lighten("bad", 0.5); got != "bad" {
		t.Fatalf("malformed input should pass through, got %s", got)
	}
	mid := Lighten("#104080", 0.5)
	if mid[0] != '#' || len(mid) != 7 {
		t.Fatalf("Lighten result malformed: %s", mid)
	}
}

func TestLightenMatchesReference(t *testing.T) {
	inputs := append([]string{"#000000", "#ffffff", "#104080", "#ABCDEF", "#xyz123", "#12345", "bad", "#aébcd"}, Palette...)
	for _, hex := range inputs {
		for _, amount := range []float64{-1, 0, 0.2, 0.25, 0.3, 0.35, 0.6, 1, 7} {
			if got, want := Lighten(hex, amount), refLighten(hex, amount); got != want {
				t.Errorf("Lighten(%q, %v) = %q, reference %q", hex, amount, got, want)
			}
		}
	}
}

// commentBody returns what sits between the delimiters of the one
// comment a fresh document holds.
func commentBody(t *testing.T, text string) string {
	t.Helper()
	d := New(1, 1)
	head := len(d.Bytes()) - len("</svg>\n")
	d.Comment(text)
	out := string(d.Bytes())
	body, ok := strings.CutPrefix(out[head:], "<!-- ")
	if !ok {
		t.Fatalf("comment does not open: %q", out[head:])
	}
	body, ok = strings.CutSuffix(body, " -->\n</svg>\n")
	if !ok {
		t.Fatalf("comment does not close: %q", out[head:])
	}
	return body
}

func TestCommentCannotEndEarly(t *testing.T) {
	for _, text := range []string{
		"-", "--", "---", "----", "-----", "a-", "a--", "a---", "-a-", "- -", "-- --",
		"--->", "---><script>alert(1)</script>", "x-->y", "x--->y", "x---->y", "--!>", "\x00-\x01-", "-\xff-",
	} {
		body := commentBody(t, text)
		if strings.Contains(body, "--") {
			t.Errorf("Comment(%q): body %q contains \"--\"", text, body)
		}
		if !inReferenceDomain(body) {
			t.Errorf("Comment(%q): body %q keeps a character XML forbids", text, body)
		}
	}
	// what the parent already got right keeps its spelling
	if got := commentBody(t, "a--b--c - d"); got != "a- -b- -c - d" {
		t.Errorf("body = %q", got)
	}
}

func TestEscaperReplacesWhatXMLForbids(t *testing.T) {
	got := string(appendEscaped(nil, "a\x00b\x1fc\td\ne\rf\xffg\uFFFEh\uFFFFi\uFFFDj\u00e9\U0001F600\xed\xa0\x80&<>\""))
	want := "a\uFFFDb\uFFFDc\td\ne\rf\uFFFDg\uFFFDh\uFFFDi\uFFFDj\u00e9\U0001F600\uFFFD\uFFFD\uFFFD&amp;&lt;&gt;&quot;"
	if got != want {
		t.Fatalf("escaped = %q, want %q", got, want)
	}
}
