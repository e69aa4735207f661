package main

import (
	"os"
	"path/filepath"
	"sort"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/turtle"
)

// corpusSeed is fixed: corpus sizes and oracle values must not move with
// the op seed, or two seeds would measure two different systems.
const corpusSeed = 1

// dataset is one corpus the server under test holds, mirrored in memory
// so every expected value is computed on the memory tier in-process.
type dataset struct {
	url     string // dataset URL on `serve`; "" for the single sparqld store
	st      *store.Store
	classes []classInfo // by descending instance count
}

// classInfo is what the op generator needs to know about one class.
type classInfo struct {
	iri       string
	n         int
	instances []string // first maxInstances subjects in index order
	dataProps []string // literal-valued predicates of its instances
	links     []link   // IRI-valued predicates with the target's class
}

type link struct {
	pred   string
	target int // index into dataset.classes, -1 when the target is untyped
}

// maxInstances bounds the per-class subject pool the point lookups draw
// from; the Zipf pick concentrates on its head anyway.
const maxInstances = 512

func newDataset(url string, st *store.Store) *dataset {
	d := &dataset{url: url, st: st}
	typeT := rdf.NewIRI(rdf.RDFType)
	byIRI := map[string]int{}
	for i, cs := range st.Classes() {
		byIRI[cs.Class.Value] = i
		d.classes = append(d.classes, classInfo{iri: cs.Class.Value, n: cs.Instances})
	}
	for i := range d.classes {
		ci := &d.classes[i]
		var insts []rdf.Term
		st.InstancesOf(rdf.NewIRI(ci.iri), func(s rdf.Term) bool {
			insts = append(insts, s)
			return len(insts) < maxInstances
		})
		dataSeen, linkSeen := map[string]bool{}, map[string]bool{}
		for k, inst := range insts {
			ci.instances = append(ci.instances, inst.Value)
			if k >= 4 {
				continue // the schema is regular: a few instances show every predicate
			}
			st.Match(store.Pattern{S: inst}, func(t rdf.Triple) bool {
				switch {
				case t.P == typeT:
				case t.O.Kind == rdf.KindLiteral:
					if !dataSeen[t.P.Value] {
						dataSeen[t.P.Value] = true
						ci.dataProps = append(ci.dataProps, t.P.Value)
					}
				case t.O.Kind == rdf.KindIRI && !linkSeen[t.P.Value]:
					linkSeen[t.P.Value] = true
					target := -1
					st.Match(store.Pattern{S: t.O, P: typeT}, func(tt rdf.Triple) bool {
						target = byIRI[tt.O.Value]
						return false
					})
					ci.links = append(ci.links, link{pred: t.P.Value, target: target})
				}
				return true
			})
		}
		sort.Strings(ci.dataProps)
		sort.Slice(ci.links, func(a, b int) bool { return ci.links[a].pred < ci.links[b].pred })
	}
	return d
}

// sparqlCorpus is the sparqld corpus: the default synthetic source at the
// given instance count (20000 → 152,708 triples).
func sparqlCorpus(instances int) *dataset {
	spec := synth.DefaultSpec("bench", corpusSeed)
	spec.Instances = instances
	return newDataset("", synth.Generate(spec))
}

// writeNTriples writes the corpus where `hbold sparqld <file>` loads it.
func writeNTriples(d *dataset, dir string) (string, error) {
	path := filepath.Join(dir, "corpus.nt")
	return path, os.WriteFile(path, []byte(turtle.WriteNTriples(d.st.Graph())), 0o644)
}

// serveCorpus rebuilds, in the same order and from the same seed, the
// stores `hbold serve -datasets n` indexes: the Scholarly LD plus the
// first n always-up indexable endpoints of synth.Corpus(1).
func serveCorpus(n int) []*dataset {
	out := []*dataset{newDataset("http://scholarly.example.org/sparql", synth.Scholarly(corpusSeed))}
	for _, d := range synth.Corpus(corpusSeed) {
		if len(out) > n {
			break
		}
		if !d.Indexable || d.Dead || d.OutageProb > 0 {
			continue
		}
		out = append(out, newDataset(d.URL, synth.BuildStore(d)))
	}
	// the server lists datasets sorted by URL; the Zipf pick follows that order
	sort.Slice(out, func(a, b int) bool { return out[a].url < out[b].url })
	return out
}
