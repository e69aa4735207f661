package disk

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/store"
)

// CopyFrom replicates the full content of a ReaderAPI view into this
// (empty) store, preserving the source's ID assignment. The two tiers end
// up bit-compatible — every Runs shape enumerates the same IDs in the
// same order — which is what lets the differential tests compare exact
// row sequences, tie orders included.
//
// The copy is one kv ingest (kv.DB.Ingest): the whole key space, written
// in key order into one segment. Only the reverse dictionary needs a
// sort; every other table is a walk of the source in ID order — the meta
// record and the role bits from a first walk of its OSP permutation, then
// the three permutations themselves and the forward dictionary. Nothing
// passes through the WAL or the memtable, and the manifest rename is the
// copy's one commit point: a copy cut short leaves an empty store, never
// a part of the source.
func (s *Store) CopyFrom(src store.ReaderAPI) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.emptyLocked() {
		return fmt.Errorf("disk: CopyFrom requires an empty store")
	}
	maxID := src.MaxID()
	if maxID == 0 {
		return nil
	}
	m, roles, err := survey(src)
	if err != nil {
		return err
	}
	rawMeta, err := json.Marshal(m)
	if err != nil {
		return err
	}
	dict := sortDictionary(src)
	err = s.db.Ingest(func(put func(k, v []byte) error) error {
		var key []byte
		for _, id := range dict.inline {
			key = append(append(key[:0], kDict), dict.enc(id)...)
			if err := put(key, encodeID(id)); err != nil {
				return err
			}
		}
		for i := 0; i < len(dict.hashed); {
			h := dict.hashed[i].h
			var ids []byte
			for ; i < len(dict.hashed) && dict.hashed[i].h == h; i++ {
				ids = append(ids, encodeID(dict.hashed[i].id)...)
			}
			key = binary.BigEndian.AppendUint64(append(key[:0], kHash), h)
			if err := put(key, ids); err != nil {
				return err
			}
		}
		if err := put([]byte{kMeta}, rawMeta); err != nil {
			return err
		}
		for _, table := range []byte{kOSP, kPOS} {
			if err := walkPermutation(src, table, put); err != nil {
				return err
			}
		}
		for id := store.ID(1); id <= maxID; id++ {
			if roles[id] != 0 {
				if err := put(appendKey(key[:0], kRole, id), []byte{roles[id]}); err != nil {
					return err
				}
			}
		}
		if err := walkPermutation(src, kSPO, put); err != nil {
			return err
		}
		for id := store.ID(1); id <= maxID; id++ {
			if err := put(appendKey(key[:0], kTerm, id), dict.enc(id)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return s.reloadMeta()
}

// Empty reports whether the store has never held a term, which is what
// CopyFrom requires. A store whose triples were all deleted is not empty:
// its dictionary keeps every ID it issued.
func (s *Store) Empty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.emptyLocked()
}

func (s *Store) emptyLocked() bool {
	return s.meta.Len == 0 && s.meta.MaxID == 0 && s.batch.Len() == 0
}

// survey walks the source's OSP permutation once and returns the meta
// record and the role bits (indexed by ID) its triples imply.
func survey(src store.ReaderAPI) (*meta, []byte, error) {
	maxID := src.MaxID()
	m := &meta{MaxID: maxID, PredCount: make(map[store.ID]int)}
	roles := make([]byte, maxID+1)
	err := walk(src, kOSP, func(s, p, o store.ID) error {
		roles[s] |= roleSubject
		roles[p] |= rolePredicate
		roles[o] |= roleObject
		m.PredCount[p]++
		m.Len++
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if m.Len != src.Len() {
		return nil, nil, fmt.Errorf("disk: CopyFrom: the source holds %d triples and its scan found %d", src.Len(), m.Len)
	}
	for _, r := range roles {
		if r&roleSubject != 0 {
			m.DistinctS++
		}
		if r&rolePredicate != 0 {
			m.DistinctP++
		}
		if r&roleObject != 0 {
			m.DistinctO++
		}
	}
	return m, roles, nil
}

// walkPermutation puts every key of one permutation table.
func walkPermutation(src store.ReaderAPI, table byte, put func(k, v []byte) error) error {
	var key []byte
	return walk(src, table, func(s, p, o store.ID) error {
		switch table {
		case kSPO:
			key = appendKey(key[:0], table, s, p, o)
		case kPOS:
			key = appendKey(key[:0], table, p, o, s)
		default:
			key = appendKey(key[:0], table, o, s, p)
		}
		return put(key, nil)
	})
}

// walk hands fn every triple of the source, in the key order of the
// permutation table: first key by first key in ID order, each one's runs
// as the source's index for that shape holds them. It stops at the first
// error, fn's or the source's.
func walk(src store.ReaderAPI, table byte, fn func(s, p, o store.ID) error) error {
	var err error
	each := func(rn store.Run) bool {
		t := [3]store.ID{rn.S, rn.P, rn.O}
		for _, id := range rn.IDs {
			t[rn.At] = id
			if err = fn(t[0], t[1], t[2]); err != nil {
				return false
			}
		}
		return true
	}
	for a := store.ID(1); a <= src.MaxID(); a++ {
		var pat store.IDPattern
		switch table {
		case kSPO:
			pat.S = a
		case kPOS:
			pat.P = a
		default:
			pat.O = a
		}
		if serr := src.Runs(pat, each); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// sortedDictionary is the source's term encodings, one after another in
// ID order, with the IDs in the order of their reverse-dictionary keys.
type sortedDictionary struct {
	encs   []byte
	ends   []int       // encoding of id is encs[ends[id-1]:ends[id]]
	inline []store.ID  // IDs of inline encodings, in encoding order
	hashed []hashEntry // the rest, in (hash, ID) order
}

type hashEntry struct {
	h  uint64
	id store.ID
}

func (d *sortedDictionary) enc(id store.ID) []byte { return d.encs[d.ends[id-1]:d.ends[id]] }

func sortDictionary(src store.ReaderAPI) *sortedDictionary {
	maxID := src.MaxID()
	d := &sortedDictionary{ends: make([]int, maxID+1)}
	for id := store.ID(1); id <= maxID; id++ {
		d.encs = appendTerm(d.encs, src.Term(id))
		d.ends[id] = len(d.encs)
	}
	for id := store.ID(1); id <= maxID; id++ {
		if e := d.enc(id); len(e) <= inlineMax {
			d.inline = append(d.inline, id)
		} else {
			d.hashed = append(d.hashed, hashEntry{hashEnc(e), id})
		}
	}
	slices.SortFunc(d.inline, func(a, b store.ID) int { return bytes.Compare(d.enc(a), d.enc(b)) })
	slices.SortFunc(d.hashed, func(a, b hashEntry) int {
		return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.id, b.id))
	})
	return d
}
