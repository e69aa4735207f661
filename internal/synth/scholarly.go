// Package synth generates the synthetic Linked Data this reproduction
// substitutes for the live sources the paper visualizes: the
// ScholarlyData-like dataset walked through in Figures 2 and 7, a
// parametric generator for arbitrary schema shapes, and the corpus of 680
// registered / 130 indexable endpoints behind the §3.3 and §5 claims.
package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/rdf"
	"repro/internal/store"
)

// ScholarlyNS is the namespace of the synthetic ScholarlyData dataset.
const ScholarlyNS = "http://scholarly.example.org/ontology#"

// scholarlyClass describes one class of the Scholarly fixture.
type scholarlyClass struct {
	name      string
	instances int
	// attributes are datatype properties attached to each instance.
	attributes []string
}

// scholarlyLink describes an object property between two classes: each
// instance of from gets count links to random instances of to.
type scholarlyLink struct {
	from, prop, to string
	perInstance    int
}

// The fixture mirrors the classes visible in the paper's Figure 2 and
// Figure 7 walkthrough of the Scholarly LD (conference metadata): Event
// with Situation as range of its properties, and Vevent, SessionEvent,
// ConferenceSeries and InformationObject as domains of properties
// pointing at Event.
var scholarlyClasses = []scholarlyClass{
	{"Person", 1200, []string{"name", "affiliationName"}},
	{"InProceedings", 900, []string{"title", "year", "pages"}},
	{"Proceedings", 60, []string{"title", "year"}},
	{"Event", 150, []string{"label", "startDate", "endDate"}},
	{"Vevent", 130, []string{"summary"}},
	{"SessionEvent", 220, []string{"label"}},
	{"ConferenceSeries", 25, []string{"label"}},
	{"ConferenceEvent", 40, []string{"label", "location"}},
	{"Situation", 300, []string{"description"}},
	{"InformationObject", 180, []string{"label"}},
	{"Organisation", 140, []string{"name", "country"}},
	{"Site", 35, []string{"siteName"}},
	{"Role", 50, []string{"label"}},
	{"Document", 210, []string{"title"}},
	{"Talk", 240, []string{"label", "duration"}},
}

var scholarlyLinks = []scholarlyLink{
	{"InProceedings", "author", "Person", 3},
	{"InProceedings", "partOf", "Proceedings", 1},
	{"Proceedings", "proceedingsOf", "ConferenceEvent", 1},
	{"ConferenceEvent", "partOfSeries", "ConferenceSeries", 1},
	{"ConferenceEvent", "subEvent", "SessionEvent", 4},
	{"SessionEvent", "hasTalk", "Talk", 2},
	{"Talk", "presents", "InProceedings", 1},
	{"Person", "holdsRole", "Role", 1},
	{"Person", "memberOf", "Organisation", 1},
	{"Organisation", "basedAt", "Site", 1},
	// Figure 7 relations around the Event focus class:
	{"Event", "hasSituation", "Situation", 2}, // Situation is rdfs:Range
	{"Vevent", "describesEvent", "Event", 1},  // domains pointing at Event
	{"SessionEvent", "withinEvent", "Event", 1},
	{"ConferenceSeries", "seriesEvent", "Event", 2},
	{"InformationObject", "about", "Event", 1},
	{"Event", "atSite", "Site", 1},
	{"Document", "documents", "Event", 1},
}

// Scholarly builds the synthetic ScholarlyData store. The seed controls
// link targets; the class/property structure is fixed.
func Scholarly(seed int64) *store.Store {
	rng := rand.New(rand.NewSource(seed))
	b := store.NewBuilder()
	typeT := rdf.NewIRI(rdf.RDFType)

	classIRI := func(name string) rdf.Term { return rdf.NewIRI(ScholarlyNS + name) }
	propIRI := func(name string) rdf.Term { return rdf.NewIRI(ScholarlyNS + name) }
	instIRI := func(class string, i int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://scholarly.example.org/resource/%s/%d", class, i))
	}

	for _, c := range scholarlyClasses {
		ct := classIRI(c.name)
		for i := 0; i < c.instances; i++ {
			inst := instIRI(c.name, i)
			b.AddSPO(inst, typeT, ct)
			for _, attr := range c.attributes {
				b.AddSPO(inst, propIRI(attr), rdf.NewLiteral(fmt.Sprintf("%s %s %d", c.name, attr, i)))
			}
		}
	}
	counts := map[string]int{}
	for _, c := range scholarlyClasses {
		counts[c.name] = c.instances
	}
	for _, l := range scholarlyLinks {
		prop := propIRI(l.prop)
		for i := 0; i < counts[l.from]; i++ {
			src := instIRI(l.from, i)
			for k := 0; k < l.perInstance; k++ {
				dst := instIRI(l.to, rng.Intn(counts[l.to]))
				b.AddSPO(src, prop, dst)
			}
		}
	}
	return b.Store()
}

// ScholarlyClassCount is the number of instantiated classes in the
// Scholarly fixture.
func ScholarlyClassCount() int { return len(scholarlyClasses) }
