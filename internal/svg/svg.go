// Package svg is a minimal SVG document builder used by the viz package
// to render the H-BOLD visualizations — the stand-in for the D3/browser
// rendering of the deployed tool.
//
// A Doc is one byte slice that every element method appends to: numbers
// through appendFixed2, which appends what "%.2f" prints, strings
// through one escaper. Nothing is formatted into an intermediate string,
// so rendering a view costs its geometry plus one pass of appends, and
// the finished slice is what the server caches and writes.
package svg

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Doc accumulates SVG elements.
type Doc struct {
	b []byte
}

// New returns a document with the given pixel size.
func New(w, h float64) *Doc {
	d := &Doc{b: make([]byte, 0, 8<<10)}
	d.b = append(d.b, `<svg xmlns="http://www.w3.org/2000/svg"`...)
	d.numAttr(` width="`, w)
	d.numAttr(` height="`, h)
	d.b = append(d.b, ` viewBox="0 0 `...)
	d.num(w)
	d.b = append(d.b, ' ')
	d.num(h)
	d.b = append(d.b, "\">\n"...)
	return d
}

// Bytes returns the complete SVG document. The slice shares the
// document's buffer: it is valid until the next element is added.
func (d *Doc) Bytes() []byte {
	return append(d.b, "</svg>\n"...)
}

func (d *Doc) num(v float64) { d.b = appendFixed2(d.b, v) }

// appendFixed2 appends v with two decimals: byte for byte what
// strconv.AppendFloat(b, v, 'f', 2, 64) — and so "%.2f" — appends, for
// every float64 (FuzzFixed2). strconv has no fast path for a fixed
// number of decimals: it expands the value into a decimal string and
// shifts that digit by digit, which was most of the cost of a render. A
// coordinate needs none of that. A finite float64 is mant × 2^-shift;
// below 2^52 its hundredths, mant × 100 >> shift, fit a uint64 exactly,
// and the bits shifted out say which way to round — up past the half,
// to even on it, as strconv does.
func appendFixed2(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp := int(bits >> 52 & 0x7ff)
	mant := bits & (1<<52 - 1)
	if exp >= 1075 {
		// NaN, ±Inf, or an integer of 2^52 and up: nothing to round
		return strconv.AppendFloat(b, v, 'f', 2, 64)
	}
	if exp == 0 {
		exp = 1 // subnormal: no implicit leading bit
	} else {
		mant |= 1 << 52
	}
	shift := uint(1075 - exp) // 1 … 1074
	var h uint64              // |v| in hundredths
	if shift <= 60 {
		p := mant * 100 // < 2^60
		h = p >> shift
		rest, half := p&(1<<shift-1), uint64(1)<<(shift-1)
		if rest > half || rest == half && h&1 == 1 {
			h++
		}
	} // else mant × 100 < 2^60 ≤ half a hundredth's worth of bits: h = 0
	if bits>>63 != 0 {
		b = append(b, '-') // also for -0 and for what rounds to it
	}
	b = strconv.AppendUint(b, h/100, 10)
	c := h % 100
	return append(b, '.', byte('0'+c/10), byte('0'+c%10))
}

// numAttr appends open (an attribute name up to and including its
// opening quote), the number and the closing quote.
func (d *Doc) numAttr(open string, v float64) {
	d.b = append(d.b, open...)
	d.num(v)
	d.b = append(d.b, '"')
}

// strAttr is numAttr for an escaped string value.
func (d *Doc) strAttr(open, s string) {
	d.b = append(d.b, open...)
	d.b = appendEscaped(d.b, s)
	d.b = append(d.b, '"')
}

// extra appends the caller's name/value attribute pairs. Names are
// written as given (they are literals of the viz package), values
// escaped.
func (d *Doc) extra(opts []string) {
	for i := 0; i+1 < len(opts); i += 2 {
		d.b = append(d.b, ' ')
		d.b = append(d.b, opts[i]...)
		d.strAttr(`="`, opts[i+1])
	}
}

// end appends the optional attributes and closes an empty element.
func (d *Doc) end(opts []string) {
	d.extra(opts)
	d.b = append(d.b, "/>\n"...)
}

// forbidden reports whether XML 1.0 excludes r from documents: C0
// controls other than tab, LF and CR, and the two non-characters of the
// BMP. (Surrogates cannot come out of a UTF-8 decoder.)
func forbidden(r rune) bool {
	return r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF
}

// appendEscaped appends s for use as character content or inside a
// double-quoted attribute value: & < > " become entity references, and
// what XML forbids outright (see forbidden, plus bytes that are not
// UTF-8) becomes U+FFFD — labels and IRIs are data the server did not
// write, and one stray control byte would make the whole view
// unparseable.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '&' && c != '<' && c != '>' && c != '"' {
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		var rep string
		switch {
		case r == '&':
			rep = "&amp;"
		case r == '<':
			rep = "&lt;"
		case r == '>':
			rep = "&gt;"
		case r == '"':
			rep = "&quot;"
		case forbidden(r), r == utf8.RuneError && width == 1:
			rep = "\uFFFD"
		default:
			i += width
			continue
		}
		b = append(append(b, s[last:i]...), rep...)
		i += width
		last = i
	}
	return append(b, s[last:]...)
}

// Rect draws a rectangle.
func (d *Doc) Rect(x, y, w, h float64, fill, stroke string, opts ...string) {
	d.b = append(d.b, "<rect"...)
	d.numAttr(` x="`, x)
	d.numAttr(` y="`, y)
	d.numAttr(` width="`, w)
	d.numAttr(` height="`, h)
	d.strAttr(` fill="`, fill)
	d.strAttr(` stroke="`, stroke)
	d.end(opts)
}

// Circle draws a circle.
func (d *Doc) Circle(cx, cy, r float64, fill, stroke string, opts ...string) {
	d.b = append(d.b, "<circle"...)
	d.numAttr(` cx="`, cx)
	d.numAttr(` cy="`, cy)
	d.numAttr(` r="`, r)
	d.strAttr(` fill="`, fill)
	d.strAttr(` stroke="`, stroke)
	d.end(opts)
}

// Line draws a line segment.
func (d *Doc) Line(x1, y1, x2, y2 float64, stroke string, width float64, opts ...string) {
	d.b = append(d.b, "<line"...)
	d.numAttr(` x1="`, x1)
	d.numAttr(` y1="`, y1)
	d.numAttr(` x2="`, x2)
	d.numAttr(` y2="`, y2)
	d.strAttr(` stroke="`, stroke)
	d.numAttr(` stroke-width="`, width)
	d.end(opts)
}

// Text draws text anchored at (x, y).
func (d *Doc) Text(x, y float64, size float64, anchor, fill, content string, opts ...string) {
	d.b = append(d.b, "<text"...)
	d.numAttr(` x="`, x)
	d.numAttr(` y="`, y)
	d.numAttr(` font-size="`, size)
	d.strAttr(` text-anchor="`, anchor)
	d.strAttr(` fill="`, fill)
	d.b = append(d.b, ` font-family="sans-serif"`...)
	d.extra(opts)
	d.b = append(d.b, '>')
	d.b = appendEscaped(d.b, content)
	d.b = append(d.b, "</text>\n"...)
}

// paint appends the fill, stroke and stroke-width of a path and closes
// it.
func (d *Doc) paint(fill, stroke string, width float64, opts []string) {
	d.strAttr(` fill="`, fill)
	d.strAttr(` stroke="`, stroke)
	d.numAttr(` stroke-width="`, width)
	d.end(opts)
}

// Path draws a raw path.
func (d *Doc) Path(dAttr, fill, stroke string, width float64, opts ...string) {
	d.strAttr(`<path d="`, dAttr)
	d.paint(fill, stroke, width, opts)
}

// Polyline draws a polyline through the points (flat x,y pairs).
func (d *Doc) Polyline(pts []float64, stroke string, width float64, opts ...string) {
	d.b = append(d.b, `<polyline points="`...)
	for i := 0; i+1 < len(pts); i += 2 {
		if i > 0 {
			d.b = append(d.b, ' ')
		}
		d.num(pts[i])
		d.b = append(d.b, ',')
		d.num(pts[i+1])
	}
	d.b = append(d.b, `" fill="none"`...)
	d.strAttr(` stroke="`, stroke)
	d.numAttr(` stroke-width="`, width)
	d.end(opts)
}

// Arc draws an annular sector (sunburst slice) centered at (cx, cy),
// from angle a0 to a1 (radians, 12 o'clock, clockwise), radii r0 < r1.
func (d *Doc) Arc(cx, cy, a0, a1, r0, r1 float64, fill, stroke string, opts ...string) {
	sin0, cos0 := math.Sin(a0), math.Cos(a0)
	sin1, cos1 := math.Sin(a1), math.Cos(a1)
	large := byte('0')
	if a1-a0 > 3.14159265 {
		large = '1'
	}
	// outer edge clockwise, across to the inner radius, inner edge back
	d.b = append(d.b, `<path d="M `...)
	d.xy(cx+r1*sin0, cy-r1*cos0)
	d.arcTo(r1, large, '1', cx+r1*sin1, cy-r1*cos1)
	d.b = append(d.b, " L "...)
	d.xy(cx+r0*sin1, cy-r0*cos1)
	d.arcTo(r0, large, '0', cx+r0*sin0, cy-r0*cos0)
	d.b = append(d.b, ` Z"`...)
	d.paint(fill, stroke, 1, opts)
}

// xy appends "x y".
func (d *Doc) xy(x, y float64) {
	d.num(x)
	d.b = append(d.b, ' ')
	d.num(y)
}

// arcTo appends the path command " A r r 0 large sweep x y".
func (d *Doc) arcTo(r float64, large, sweep byte, x, y float64) {
	d.b = append(d.b, " A "...)
	d.xy(r, r)
	d.b = append(d.b, ' ', '0', ' ', large, ' ', sweep, ' ')
	d.xy(x, y)
}

// Comment inserts an XML comment (useful for debugging output). XML
// gives comments no escape syntax, so the text is made safe instead: a
// '-' that would follow another is preceded by a space — whatever the
// input, the body holds no "--" to end the comment early, and the space
// before the closing delimiter keeps a trailing '-' from fusing with it
// — and forbidden characters become U+FFFD as in appendEscaped.
func (d *Doc) Comment(text string) {
	d.b = append(d.b, "<!-- "...)
	dash := false
	for i := 0; i < len(text); {
		r, width := utf8.DecodeRuneInString(text[i:])
		switch {
		case forbidden(r), r == utf8.RuneError && width == 1:
			d.b = append(d.b, "\uFFFD"...)
		case r == '-' && dash:
			d.b = append(d.b, ' ', '-')
		default:
			d.b = append(d.b, text[i:i+width]...)
		}
		dash = r == '-'
		i += width
	}
	d.b = append(d.b, " -->\n"...)
}

// Palette is the categorical color scale used across the visualizations
// (a d3.schemeCategory10-like palette).
var Palette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// Color returns a palette color for an index (cycling).
func Color(i int) string { return Palette[((i%len(Palette))+len(Palette))%len(Palette)] }

// Lighten approximates a lighter shade of a #rrggbb color by mixing with
// white.
func Lighten(hex string, amount float64) string {
	if len(hex) != 7 || hex[0] != '#' || amount < 0 {
		return hex
	}
	const digits = "0123456789abcdef"
	out := [7]byte{'#'}
	for i := 0; i < 3; i++ {
		v := hexPair(hex[1+2*i], hex[2+2*i])
		nv := v + int(float64(255-v)*amount)
		if nv > 255 {
			nv = 255
		}
		out[1+2*i], out[2+2*i] = digits[nv>>4&15], digits[nv&15]
	}
	return string(out[:])
}

// hexPair reads two hex digits; a byte that is not one counts as 0.
func hexPair(hi, lo byte) int { return hexVal(hi)<<4 | hexVal(lo) }

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return 0
}
