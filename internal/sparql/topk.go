package sparql

// Bounded top-k selection for ORDER BY … LIMIT k. Instead of sorting the
// full solution set and discarding everything past the window, a max-heap
// of k = OFFSET + LIMIT rows keeps only the candidates that can still
// appear in the answer: a new row is compared against the current worst
// and either replaces it or is dropped on the spot. Live memory is O(k)
// rows however many solutions the pattern produces, which is what lets
// ORDER BY … LIMIT run without buffering the solution set. The comparison is CompareOrderKeys — the same one the full
// sort and the federated ordered merge use — with an arrival sequence
// number as the final tie-break, so the kept window and its order are
// exactly what the stable full sort would have produced over the same
// input sequence.

import (
	"sort"

	"repro/internal/rdf"
	"repro/internal/store"
)

// topkEntry is one retained candidate: an owned row copy, its evaluated
// sort key, and the arrival sequence number that stands in for sort
// stability.
type topkEntry struct {
	row []store.ID
	key OrderKey
	seq int64
}

// rowTopK keeps the k best rows seen so far under conds. The entries
// form a max-heap on (key, seq): the worst retained row sits at index 0,
// where the next candidate can be tested against it in O(1).
type rowTopK struct {
	conds []OrderCond
	k     int
	es    []topkEntry
	next  int64
	bound *topkBound // published once full; nil when the first key is not a variable
}

// topkBound is what a full heap publishes to the join that feeds it: the
// slot and direction of the first ORDER BY condition, a plain variable,
// and the sort prefix (rdf.SortPrefix) of the worst retained row's key on
// it. A row whose prefix is strictly past worst sorts strictly after
// every retained row: it can never be kept or tie, and since the bound
// only tightens it never could later either. So the join may drop it — a
// whole run, or a whole subtree at an upper level — before it is bound
// further or its key is built.
type topkBound struct {
	slot  int
	desc  bool
	worst uint64 // 0 until the heap is full, and while the worst key has no prefix
}

// past reports whether a key with prefix p sorts strictly after the
// bound; equal prefixes, a zero prefix and a class mismatch decide
// nothing.
func (b *topkBound) past(p uint64) bool {
	if !rdf.SamePrefixClass(p, b.worst) {
		return false
	}
	if b.desc {
		return p < b.worst
	}
	return p > b.worst
}

// publish moves the bound to the worst retained row, once the heap is full.
func (h *rowTopK) publish() {
	if h.bound == nil || h.k <= 0 || len(h.es) < h.k {
		return
	}
	h.bound.worst = 0
	if w := h.es[0].key; !w.errs[0] {
		h.bound.worst = rdf.SortPrefix(w.keys[0])
	}
}

func newRowTopK(conds []OrderCond, k int) *rowTopK {
	return &rowTopK{conds: conds, k: k}
}

// worse reports whether a sorts strictly after b. Equal keys fall back to
// arrival order, so the relation is a total order.
func (h *rowTopK) worse(a, b topkEntry) bool {
	if c := CompareOrderKeys(h.conds, a.key, b.key); c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

// offer considers one row. The row and key may point into caller scratch:
// both are copied only if the candidate is retained, so a rejected row —
// the overwhelmingly common case once the heap is warm — costs one key
// comparison and nothing else.
func (h *rowTopK) offer(r []store.ID, key OrderKey) {
	e := topkEntry{key: key, seq: h.next}
	h.next++
	if h.k <= 0 {
		return
	}
	if len(h.es) < h.k {
		e.row = append([]store.ID(nil), r...)
		e.key = key.clone(nil)
		h.es = append(h.es, e)
		h.up(len(h.es) - 1)
		h.publish()
		return
	}
	if !h.worse(h.es[0], e) {
		return // not better than the current worst: drop
	}
	// replace the worst, recycling its row and key storage
	e.row = append(h.es[0].row[:0], r...)
	e.key = key.clone(&h.es[0].key)
	h.es[0] = e
	h.down(0)
	h.publish()
}

// offerRun considers a run of rows that share one sort key — r with
// rn.slot, which no condition reads, set to each of rn.ids in turn; r
// alone for a single row — in arrival order. Once the heap is full, a
// row whose key does not sort strictly before the worst retained one is
// dropped, and so is the rest of its run: the worst only improves, and a
// later arrival never wins a tie. The arrival counter still advances past
// the dropped rows, so ties resolve exactly as they would row by row.
func (h *rowTopK) offerRun(r []store.ID, rn idRun, key OrderKey) {
	n := max(len(rn.ids), 1)
	for i := 0; i < n; i++ {
		if len(h.es) >= h.k && (h.k <= 0 || CompareOrderKeys(h.conds, key, h.es[0].key) >= 0) {
			h.next += int64(n - i)
			return
		}
		if rn.slot >= 0 {
			r[rn.slot] = rn.ids[i]
		}
		h.offer(r, key)
	}
}

func (h *rowTopK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(h.es[i], h.es[p]) {
			return
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *rowTopK) down(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && h.worse(h.es[l], h.es[worst]) {
			worst = l
		}
		if r < n && h.worse(h.es[r], h.es[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.es[i], h.es[worst] = h.es[worst], h.es[i]
		i = worst
	}
}

// size reports how many rows the heap currently retains (≤ k).
func (h *rowTopK) size() int { return len(h.es) }

// sorted consumes the heap and returns its entries in ascending sort
// order — the final ORDER BY window before OFFSET trimming.
func (h *rowTopK) sorted() []topkEntry {
	es := h.es
	h.es = nil
	sort.Slice(es, func(i, j int) bool { return h.worse(es[j], es[i]) })
	return es
}

// clone copies the key's storage so it survives scratch reuse; into, when
// non-nil, donates its slices for recycling.
func (k OrderKey) clone(into *OrderKey) OrderKey {
	out := OrderKey{}
	if into != nil {
		out.keys = append(into.keys[:0], k.keys...)
		out.errs = append(into.errs[:0], k.errs...)
		return out
	}
	out.keys = append([]rdf.Term(nil), k.keys...)
	out.errs = append([]bool(nil), k.errs...)
	return out
}

// orderKeyOfRowInto evaluates the ORDER BY conditions on an ID-space row
// into the reusable key storage — the per-row counterpart of the key
// materialization in sortRows.
func (e *idExec) orderKeyOfRowInto(order []corder, r []store.ID, k *OrderKey) OrderKey {
	k.keys = k.keys[:0]
	k.errs = k.errs[:0]
	for ci := range order {
		t, ok := e.orderTerm(&order[ci], r)
		k.errs = append(k.errs, !ok)
		k.keys = append(k.keys, t)
	}
	return *k
}

// topKBound returns the heap bound for ORDER BY … LIMIT execution —
// OFFSET folded into k — or -1 when the query has no LIMIT and top-k
// selection does not apply.
func (q *Query) topKBound() int {
	if q.Limit < 0 {
		return -1
	}
	return q.Offset + q.Limit
}
