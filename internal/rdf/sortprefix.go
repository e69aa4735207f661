package rdf

import "math"

// Sort-prefix classes, in the top two bits of a non-zero prefix.
const (
	prefixString  = 1 << 62 // plain, xsd:string and rdf:langString literals
	prefixNumeric = 2 << 62 // numeric literals with a value other than NaN
	prefixClass   = 3 << 62
)

// SortPrefix returns an order-preserving 64-bit prefix of t's ORDER BY
// key, so that most comparisons against a bound can be decided on IDs and
// a slice of integers instead of on materialized terms. It is the one
// definition of the prefix; the stores keep it per term.
//
// The top two bits hold a class. A string-ish literal (plain, xsd:string
// or rdf:langString) carries the first 7 bytes of its lexical form, zero
// padded; a numeric literal carries the order-preserving bits of its
// Float value, -0 folded into +0 and the low two bits dropped. Anything
// else — IRIs, blank nodes, other datatypes, NaN, a numeric literal
// outside its lexical space — has no prefix: 0.
//
// The contract: when a and b are both non-zero, of the same class, and
// a < b, then t's key sorts strictly before u's under the SPARQL operator
// order ORDER BY uses. Equal prefixes, a zero prefix or different classes
// decide nothing.
func SortPrefix(t Term) uint64 {
	if t.Kind != KindLiteral {
		return 0
	}
	if t.IsNumeric() {
		f, ok := t.Float()
		if !ok || math.IsNaN(f) {
			return 0
		}
		if f == 0 {
			f = 0 // -0 and +0 compare equal
		}
		bits := math.Float64bits(f)
		if bits>>63 != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return prefixNumeric | bits>>2
	}
	if d := t.EffectiveDatatype(); d != XSDString && d != RDFLangString {
		return 0
	}
	var p uint64
	for i := 0; i < 7; i++ {
		p <<= 8
		if i < len(t.Value) {
			p |= uint64(t.Value[i])
		}
	}
	return prefixString | p
}

// SamePrefixClass reports whether two non-zero prefixes share a class,
// which is when their order says anything about their terms'.
func SamePrefixClass(a, b uint64) bool {
	return a != 0 && b != 0 && a&prefixClass == b&prefixClass
}
