// Package disk is the persistent storage tier: a dictionary-encoded
// triple store over the internal/kv engine. It implements the
// store.Backend seam, so the SPARQL engines, the EXPLAIN profiler and
// the streaming operators run on it unmodified.
//
// Key layout (first byte selects the table, every ID is a big-endian
// uint32 so lexicographic key order is ID order):
//
//	'm'                      → meta JSON (triple count, max ID,
//	                           per-predicate counts, rdf:type's ID and
//	                           per-class counts)
//	't' + id                 → encoded term (the forward dictionary)
//	'd' + encoded term       → id, for encodings ≤ 64 bytes (inline keys)
//	'h' + fnv64a(encoding)   → id list, for longer terms (hashed keys;
//	                           the list resolves collisions exactly)
//	's' + s + p + o          → ∅   (SPO permutation)
//	'p' + p + o + s          → ∅   (POS permutation)
//	'o' + o + s + p          → ∅   (OSP permutation)
//
// The three permutations carry the data in their keys alone; a range
// scan over a bound prefix enumerates the remaining positions in
// sorted-ID order, which is exactly the iteration order the in-memory
// Reader documents — the property the differential tests pin down.
package disk

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Table prefixes.
const (
	kMeta = 'm'
	kTerm = 't'
	kDict = 'd'
	kHash = 'h'
	kSPO  = 's'
	kPOS  = 'p'
	kOSP  = 'o'
)

// inlineMax is the longest term encoding stored directly as a dict key;
// longer encodings (big literals, long IRIs) go through the hash table.
const inlineMax = 64

// encodeTerm renders t canonically: kind byte then length-prefixed
// value, datatype and language. Equal terms have equal encodings, so
// byte comparison resolves hash collisions exactly.
func encodeTerm(t rdf.Term) []byte {
	return appendTerm(make([]byte, 0, 1+len(t.Value)+len(t.Datatype)+len(t.Lang)+9), t)
}

// appendTerm appends the encoding of t to b.
func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = binary.AppendUvarint(b, uint64(len(t.Value)))
	b = append(b, t.Value...)
	b = binary.AppendUvarint(b, uint64(len(t.Datatype)))
	b = append(b, t.Datatype...)
	b = binary.AppendUvarint(b, uint64(len(t.Lang)))
	b = append(b, t.Lang...)
	return b
}

func decodeTerm(b []byte) (rdf.Term, error) {
	var t rdf.Term
	if len(b) < 1 {
		return t, fmt.Errorf("disk: empty term encoding")
	}
	t.Kind = rdf.TermKind(b[0])
	b = b[1:]
	next := func() (string, error) {
		n, w := binary.Uvarint(b)
		if w <= 0 || uint64(len(b)-w) < n {
			return "", fmt.Errorf("disk: truncated term encoding")
		}
		s := string(b[w : w+int(n)])
		b = b[w+int(n):]
		return s, nil
	}
	var err error
	if t.Value, err = next(); err != nil {
		return t, err
	}
	if t.Datatype, err = next(); err != nil {
		return t, err
	}
	if t.Lang, err = next(); err != nil {
		return t, err
	}
	return t, nil
}

// hashHook, when set, is called on every hashEnc; tests count FNV
// passes with it.
var hashHook func()

func hashEnc(enc []byte) uint64 {
	if hashHook != nil {
		hashHook()
	}
	h := fnv.New64a()
	h.Write(enc)
	return h.Sum64()
}

// dictKey returns the reverse-dictionary key for an encoded term and
// whether it went through the hash table.
func dictKey(enc []byte) (string, bool) {
	if len(enc) <= inlineMax {
		return string(append([]byte{kDict}, enc...)), false
	}
	var b [9]byte
	b[0] = kHash
	binary.BigEndian.PutUint64(b[1:], hashEnc(enc))
	return string(b[:]), true
}

func termKey(id store.ID) string {
	var b [5]byte
	b[0] = kTerm
	binary.BigEndian.PutUint32(b[1:], uint32(id))
	return string(b[:])
}

// appendKey appends a permutation key, or a prefix of one, to dst: the
// table byte then the bound IDs in the permutation's component order.
// It is the one encoder of the layout; a probe appends into storage it
// reuses (cursor.prefix), a write takes a string of its own (permKey).
func appendKey(dst []byte, table byte, ids ...store.ID) []byte {
	dst = append(dst, table)
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// permKey is appendKey as a string of its own.
func permKey(table byte, ids ...store.ID) string {
	var k [13]byte
	return string(appendKey(k[:0], table, ids...))
}

// splitTriple decodes the three IDs of a permutation key (in the
// permutation's own component order).
func splitTriple(key string) (a, b, c store.ID) {
	a = store.ID(binary.BigEndian.Uint32([]byte(key[1:5])))
	b = store.ID(binary.BigEndian.Uint32([]byte(key[5:9])))
	c = store.ID(binary.BigEndian.Uint32([]byte(key[9:13])))
	return
}

func encodeID(id store.ID) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(id))
	return b[:]
}

func decodeID(b []byte) store.ID {
	if len(b) != 4 {
		return store.NoID
	}
	return store.ID(binary.BigEndian.Uint32(b))
}

// decodeIDList splits a hash-bucket value (concatenated big-endian IDs).
func decodeIDList(b []byte) []store.ID {
	out := make([]store.ID, 0, len(b)/4)
	for len(b) >= 4 {
		out = append(out, store.ID(binary.BigEndian.Uint32(b[:4])))
		b = b[4:]
	}
	return out
}
