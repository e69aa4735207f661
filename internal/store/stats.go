package store

import (
	"sort"

	"repro/internal/rdf"
)

// ClassStat summarizes one instantiated class: how many instances it has.
type ClassStat struct {
	Class     rdf.Term
	Instances int
}

// Classes returns the instantiated classes (objects of rdf:type) with
// their instance counts, sorted by descending count then IRI. This mirrors
// the first queries of H-BOLD's Index Extraction. The counts are read off
// one generation's pos[rdf:type]: one key per class, as long as its list
// of instances.
func (s *Store) Classes() []ClassStat {
	r := s.Reader()
	var out []ClassStat
	if typeID := r.Lookup(rdf.NewIRI(rdf.RDFType)); typeID != NoID {
		r.pos.get(typeID).runs(Run{}, PosO, func(rn Run) bool {
			out = append(out, ClassStat{Class: r.Term(rn.O), Instances: len(rn.IDs)})
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Instances != out[j].Instances {
			return out[i].Instances > out[j].Instances
		}
		return out[i].Class.Compare(out[j].Class) < 0
	})
	return out
}

// InstancesOf streams the subjects typed as class.
func (s *Store) InstancesOf(class rdf.Term, fn func(rdf.Term) bool) {
	s.Match(Pattern{P: rdf.NewIRI(rdf.RDFType), O: class}, func(t rdf.Triple) bool {
		return fn(t.S)
	})
}

// CountInstances returns the number of instances of class.
func (s *Store) CountInstances(class rdf.Term) int {
	return s.Count(Pattern{P: rdf.NewIRI(rdf.RDFType), O: class})
}

// DistinctSubjects returns the number of distinct subjects, a proxy for
// the "number of entities" index of H-BOLD.
func (s *Store) DistinctSubjects() int { return s.Reader().DistinctSubjects() }
