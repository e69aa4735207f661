package synth

import (
	"hash/fnv"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Partition splits a store's triples across k stores by subject hash, so
// every triple lands in exactly one partition and all triples of one
// subject stay together (rdf:type statements included — each partition's
// extracted index then describes exactly what that partition can
// answer). The union of the partitions is the original store, which is
// what the federated-vs-union differential tests and the E16 experiment
// partition corpora with.
func Partition(st *store.Store, k int) []*store.Store {
	if k < 1 {
		k = 1
	}
	parts := newBuilders(k)
	for _, tr := range st.Graph().Triples() {
		h := fnv.New32a()
		h.Write([]byte(tr.S.String()))
		parts[int(h.Sum32())%k].Add(tr)
	}
	return build(parts)
}

// PartitionByClass splits a store by the class of each subject: subjects
// typed with a class whose hash lands in partition i go to partition i,
// along with all their triples; untyped subjects follow partition 0.
// Unlike Partition, this gives each partition a *disjoint class
// vocabulary* (plus shared untyped spillover), which is what exercises
// index-driven source pruning: a query over one class provably cannot be
// answered by the partitions that hold none of its instances.
func PartitionByClass(st *store.Store, k int) []*store.Store {
	if k < 1 {
		k = 1
	}
	parts := newBuilders(k)
	// first type statement wins per subject
	home := map[string]int{}
	for _, tr := range st.Graph().Triples() {
		if tr.P.IsIRI() && tr.P.Value == rdf.RDFType {
			if _, seen := home[tr.S.String()]; !seen {
				h := fnv.New32a()
				h.Write([]byte(tr.O.String()))
				home[tr.S.String()] = int(h.Sum32()) % k
			}
		}
	}
	for _, tr := range st.Graph().Triples() {
		parts[home[tr.S.String()]].Add(tr)
	}
	return build(parts)
}

func newBuilders(k int) []*store.Builder {
	bs := make([]*store.Builder, k)
	for i := range bs {
		bs[i] = store.NewBuilder()
	}
	return bs
}

func build(bs []*store.Builder) []*store.Store {
	out := make([]*store.Store, len(bs))
	for i, b := range bs {
		out[i] = b.Store()
	}
	return out
}
