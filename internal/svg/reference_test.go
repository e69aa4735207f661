package svg

import (
	"fmt"
	"math"
	"strings"
)

// refDoc is the fmt-based document builder Doc replaced, frozen as it
// was (names prefixed, nothing else touched) so FuzzDoc and the viz
// digest table have the old bytes to compare against. It is not a second
// implementation to maintain: the only inputs on which Doc may differ
// from it are the ones inReferenceDomain excludes.
type refDoc struct {
	w, h float64
	b    strings.Builder
}

func newRef(w, h float64) *refDoc {
	d := &refDoc{w: w, h: h}
	return d
}

func refEsc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func refF(v float64) string { return fmt.Sprintf("%.2f", v) }

func (d *refDoc) Rect(x, y, w, h float64, fill, stroke string, opts ...string) {
	fmt.Fprintf(&d.b, `<rect x="%s" y="%s" width="%s" height="%s" fill="%s" stroke="%s"%s/>`+"\n",
		refF(x), refF(y), refF(w), refF(h), refEsc(fill), refEsc(stroke), refAttrs(opts))
}

func (d *refDoc) Circle(cx, cy, r float64, fill, stroke string, opts ...string) {
	fmt.Fprintf(&d.b, `<circle cx="%s" cy="%s" r="%s" fill="%s" stroke="%s"%s/>`+"\n",
		refF(cx), refF(cy), refF(r), refEsc(fill), refEsc(stroke), refAttrs(opts))
}

func (d *refDoc) Line(x1, y1, x2, y2 float64, stroke string, width float64, opts ...string) {
	fmt.Fprintf(&d.b, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"%s/>`+"\n",
		refF(x1), refF(y1), refF(x2), refF(y2), refEsc(stroke), refF(width), refAttrs(opts))
}

func (d *refDoc) Text(x, y float64, size float64, anchor, fill, content string, opts ...string) {
	fmt.Fprintf(&d.b, `<text x="%s" y="%s" font-size="%s" text-anchor="%s" fill="%s" font-family="sans-serif"%s>%s</text>`+"\n",
		refF(x), refF(y), refF(size), refEsc(anchor), refEsc(fill), refAttrs(opts), refEsc(content))
}

func (d *refDoc) Path(dAttr, fill, stroke string, width float64, opts ...string) {
	fmt.Fprintf(&d.b, `<path d="%s" fill="%s" stroke="%s" stroke-width="%s"%s/>`+"\n",
		refEsc(dAttr), refEsc(fill), refEsc(stroke), refF(width), refAttrs(opts))
}

func (d *refDoc) Polyline(pts []float64, stroke string, width float64, opts ...string) {
	var sb strings.Builder
	for i := 0; i+1 < len(pts); i += 2 {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(refF(pts[i]))
		sb.WriteByte(',')
		sb.WriteString(refF(pts[i+1]))
	}
	fmt.Fprintf(&d.b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="%s"%s/>`+"\n",
		sb.String(), refEsc(stroke), refF(width), refAttrs(opts))
}

func (d *refDoc) Arc(cx, cy, a0, a1, r0, r1 float64, fill, stroke string, opts ...string) {
	sin, cos := math.Sin(a0), math.Cos(a0)
	x0o, y0o := cx+r1*sin, cy-r1*cos
	sin, cos = math.Sin(a1), math.Cos(a1)
	x1o, y1o := cx+r1*sin, cy-r1*cos
	x1i, y1i := cx+r0*sin, cy-r0*cos
	sin, cos = math.Sin(a0), math.Cos(a0)
	x0i, y0i := cx+r0*sin, cy-r0*cos
	large := 0
	if a1-a0 > 3.14159265 {
		large = 1
	}
	path := fmt.Sprintf("M %s %s A %s %s 0 %d 1 %s %s L %s %s A %s %s 0 %d 0 %s %s Z",
		refF(x0o), refF(y0o), refF(r1), refF(r1), large, refF(x1o), refF(y1o),
		refF(x1i), refF(y1i), refF(r0), refF(r0), large, refF(x0i), refF(y0i))
	d.Path(path, fill, stroke, 1, opts...)
}

func (d *refDoc) Comment(text string) {
	fmt.Fprintf(&d.b, "<!-- %s -->\n", strings.ReplaceAll(text, "--", "- -"))
}

func (d *refDoc) String() string {
	return fmt.Sprintf(`<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" viewBox="0 0 %s %s">`+"\n",
		refF(d.w), refF(d.h), refF(d.w), refF(d.h)) + d.b.String() + "</svg>\n"
}

func refAttrs(opts []string) string {
	if len(opts) == 0 {
		return ""
	}
	var sb strings.Builder
	for i := 0; i+1 < len(opts); i += 2 {
		fmt.Fprintf(&sb, ` %s="%s"`, opts[i], refEsc(opts[i+1]))
	}
	return sb.String()
}

func refLighten(hex string, amount float64) string {
	if len(hex) != 7 || hex[0] != '#' || amount < 0 {
		return hex
	}
	parse := func(s string) int {
		v := 0
		for _, c := range s {
			v <<= 4
			switch {
			case c >= '0' && c <= '9':
				v |= int(c - '0')
			case c >= 'a' && c <= 'f':
				v |= int(c-'a') + 10
			case c >= 'A' && c <= 'F':
				v |= int(c-'A') + 10
			}
		}
		return v
	}
	r, g, b := parse(hex[1:3]), parse(hex[3:5]), parse(hex[5:7])
	mix := func(v int) int {
		nv := v + int(float64(255-v)*amount)
		if nv > 255 {
			nv = 255
		}
		return nv
	}
	return fmt.Sprintf("#%02x%02x%02x", mix(r), mix(g), mix(b))
}
