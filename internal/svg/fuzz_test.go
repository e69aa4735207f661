package svg

import (
	"encoding/binary"
	"encoding/xml"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// builder is the element surface Doc and the frozen reference share.
type builder interface {
	Rect(x, y, w, h float64, fill, stroke string, opts ...string)
	Circle(cx, cy, r float64, fill, stroke string, opts ...string)
	Line(x1, y1, x2, y2 float64, stroke string, width float64, opts ...string)
	Text(x, y, size float64, anchor, fill, content string, opts ...string)
	Path(dAttr, fill, stroke string, width float64, opts ...string)
	Polyline(pts []float64, stroke string, width float64, opts ...string)
	Arc(cx, cy, a0, a1, r0, r1 float64, fill, stroke string, opts ...string)
	Comment(text string)
}

// fuzzFloats are the values a coordinate formatter gets wrong first:
// non-finite, signed zero, magnitudes past the integer range of a
// float64, subnormals, exact ties at the third decimal, and negatives
// that round to "-0.00".
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1e21, -1e21, 1e15 + 0.5, math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 4,
	0.125, 0.375, 0.625, 0.875, -0.125, 2.675, 1.005, 0.005, 0.015, 0.025,
	-0.001, -0.004, -0.005, -0.0050000001, 0.994999, 0.995, 9.995, 99.995, 999.995,
	450, 12.3456, 1000, 700, 3.14159265, 6.0,
}

// program decodes a byte string into a sequence of element calls. The
// decoding is total — any input is some program — so the fuzzer's
// mutations all land on valid inputs.
type program struct {
	data []byte
	strs []string // every string argument handed out, for the domain check
}

func (p *program) byte() byte {
	if len(p.data) == 0 {
		return 0
	}
	c := p.data[0]
	p.data = p.data[1:]
	return c
}

func (p *program) float() float64 {
	sel := int(p.byte())
	if sel < len(fuzzFloats) {
		return fuzzFloats[sel]
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = p.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func (p *program) str() string {
	n := int(p.byte()) % 24
	if n > len(p.data) {
		n = len(p.data)
	}
	s := string(p.data[:n])
	p.data = p.data[n:]
	p.strs = append(p.strs, s)
	return s
}

var optNames = []string{"data-kind", "data-iri", "opacity", "font-weight"}

func (p *program) opts() []string {
	n := int(p.byte()) % 6 // odd counts leave a dangling name both builders must ignore
	var out []string
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			out = append(out, optNames[int(p.byte())%len(optNames)])
		} else {
			out = append(out, p.str())
		}
	}
	return out
}

// run plays the program on b and returns how many elements it emitted
// and every comment text it used.
func (p *program) run(b builder) (elements int, comments []string) {
	for len(p.data) > 0 {
		switch p.byte() % 8 {
		case 0:
			b.Rect(p.float(), p.float(), p.float(), p.float(), p.str(), p.str(), p.opts()...)
		case 1:
			b.Circle(p.float(), p.float(), p.float(), p.str(), p.str(), p.opts()...)
		case 2:
			b.Line(p.float(), p.float(), p.float(), p.float(), p.str(), p.float(), p.opts()...)
		case 3:
			b.Text(p.float(), p.float(), p.float(), p.str(), p.str(), p.str(), p.opts()...)
		case 4:
			b.Path(p.str(), p.str(), p.str(), p.float(), p.opts()...)
		case 5:
			pts := make([]float64, int(p.byte())%9)
			for i := range pts {
				pts[i] = p.float()
			}
			b.Polyline(pts, p.str(), p.float(), p.opts()...)
		case 6:
			b.Arc(p.float(), p.float(), p.float(), p.float(), p.float(), p.float(), p.str(), p.str(), p.opts()...)
		case 7:
			text := p.str()
			comments = append(comments, text)
			b.Comment(text)
			continue
		}
		elements++
	}
	return elements, comments
}

// inReferenceDomain reports whether the reference builder's output for
// s is still the required one: no character XML forbids (the reference
// copies those through) and valid UTF-8.
func inReferenceDomain(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if forbidden(r) {
			return false
		}
	}
	return true
}

// FuzzDoc holds Doc to two things. For every program: the document is
// well-formed XML holding exactly the elements the program emitted, no
// matter what the strings contain. For programs whose strings stay in
// the reference's domain (and whose comments hold no run of three
// dashes, which the reference's non-overlapping replace left
// terminating the comment): Doc's bytes are the reference's bytes.
func FuzzDoc(f *testing.F) {
	for i := range fuzzFloats {
		// one element of each kind with the seed float in leading positions
		sel := byte(i)
		f.Add([]byte{
			0, sel, 1, 2, 3, 3, '#', 'f', '0', 4, 'n', 'o', 'n', 'e', 0,
			1, sel, sel, 11, 1, 'a', 0, 2, 0, 2, '<', '"',
			2, sel, 0, sel, 0, 0, sel, 0,
			3, sel, sel, 12, 5, 's', 't', 'a', 'r', 't', 0, 6, 'a', '&', 'b', '<', 'c', '>', 0,
			5, 4, sel, sel, 12, sel, 1, 'x', sel, 2, 2, 3, '0', '.', '9',
			6, 30, 30, sel, sel, 20, 21, 3, 'r', 'e', 'd', 0, 0,
		})
	}
	f.Add([]byte{7, 4, 'a', '-', '-', 'b', 7, 5, '-', '-', '-', '>', '<', 4, 3, 'M', ' ', '0', 0, 0, 0, 0})
	f.Add([]byte{3, 255, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 2, 0xff, 0x00, 1, 0x01, 2, 0xef, 0xbf, 1, 0, 2, 0x1b, '-'})
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, ref := New(640, 480), newRef(640, 480)
		p := &program{data: data}
		elements, comments := p.run(doc)
		(&program{data: data}).run(ref)
		got := string(doc.Bytes())

		dec := xml.NewDecoder(strings.NewReader(got))
		started := 0
		for {
			tok, err := dec.Token()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("not well-formed: %v\n%s", err, got)
			}
			if _, ok := tok.(xml.StartElement); ok {
				started++
			}
		}
		if started != elements+1 {
			t.Fatalf("document holds %d elements, program emitted %d + <svg>\n%s", started, elements, got)
		}

		for _, s := range p.strs {
			if !inReferenceDomain(s) {
				return
			}
		}
		for _, c := range comments {
			if strings.Contains(c, "---") {
				return
			}
		}
		if want := ref.String(); got != want {
			t.Fatalf("Doc differs from the fmt-based reference\n got: %q\nwant: %q", got, want)
		}
	})
}

func checkFixed2(t *testing.T, v float64) {
	t.Helper()
	got := string(appendFixed2([]byte("x"), v))
	want := "x" + strconv.FormatFloat(v, 'f', 2, 64)
	if got != want {
		t.Fatalf("appendFixed2(%v = %#016x) = %q, strconv gives %q", v, math.Float64bits(v), got, want)
	}
	if ref := "x" + refF(v); got != ref {
		t.Fatalf("appendFixed2(%v) = %q, %%.2f gives %q", v, got, ref)
	}
}

// FuzzFixed2 proves appendFixed2 equal to strconv's 'f'/2 formatting —
// and to the "%.2f" the reference builder used — on any bit pattern.
func FuzzFixed2(f *testing.F) {
	for _, v := range fuzzFloats {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFixed2(t, math.Float64frombits(bits))
	})
}

// TestFixed2 sweeps what a fuzzer finds slowly: every tie and near-tie
// at the third decimal over a range of magnitudes, each binade's edges,
// and a seeded sample of all bit patterns.
func TestFixed2(t *testing.T) {
	for _, v := range fuzzFloats {
		checkFixed2(t, v)
		checkFixed2(t, -v)
	}
	// k/8 and k/1000 hit exact and inexact .xx5; neighbours sit one ulp off
	for k := 0; k < 4000; k++ {
		for _, v := range []float64{float64(k) / 8, float64(k) / 1000, float64(k)/1000 + 0.005, float64(k) * 1024.125} {
			checkFixed2(t, v)
			checkFixed2(t, -v)
			checkFixed2(t, math.Nextafter(v, math.Inf(1)))
			checkFixed2(t, math.Nextafter(v, math.Inf(-1)))
		}
	}
	for exp := uint64(0); exp < 0x800; exp++ {
		for _, mant := range []uint64{0, 1, 1<<51 - 1, 1 << 51, 1<<51 + 1, 1<<52 - 1} {
			checkFixed2(t, math.Float64frombits(exp<<52|mant))
			checkFixed2(t, math.Float64frombits(1<<63|exp<<52|mant))
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40000; i++ {
		checkFixed2(t, math.Float64frombits(rng.Uint64()))
		// and where coordinates live: magnitudes of 2^-20 … 2^20
		checkFixed2(t, math.Float64frombits(rng.Uint64()&^(0x7ff<<52)|(1003+rng.Uint64()%40)<<52))
	}
}
