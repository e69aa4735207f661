package synth

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/store"
)

func TestScholarlyClassInventory(t *testing.T) {
	st := Scholarly(1)
	classes := st.Classes()
	if len(classes) != ScholarlyClassCount() {
		t.Fatalf("classes = %d, want %d", len(classes), ScholarlyClassCount())
	}
	// Figure 2/7 classes must exist
	for _, name := range []string{"Event", "Situation", "Vevent", "SessionEvent", "ConferenceSeries", "InformationObject"} {
		if instances(st, rdf.NewIRI(ScholarlyNS+name)) == 0 {
			t.Errorf("class %s has no instances", name)
		}
	}
}

// instances counts the subjects typed as class.
func instances(st *store.Store, class rdf.Term) int {
	return st.Count(store.Pattern{P: rdf.NewIRI(rdf.RDFType), O: class})
}

func TestScholarlyInstanceCounts(t *testing.T) {
	st := Scholarly(1)
	if n := instances(st, rdf.NewIRI(ScholarlyNS+"Person")); n != 1200 {
		t.Fatalf("Person instances = %d, want 1200", n)
	}
	if n := instances(st, rdf.NewIRI(ScholarlyNS+"ConferenceSeries")); n != 25 {
		t.Fatalf("ConferenceSeries instances = %d, want 25", n)
	}
}

func TestScholarlyDeterministic(t *testing.T) {
	a, b := Scholarly(9), Scholarly(9)
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
	a.Match(store.Pattern{}, func(tr rdf.Triple) bool {
		if !b.Has(tr) {
			t.Fatalf("triple %v missing in second build", tr)
		}
		return true
	})
}

func TestScholarlyEventLinks(t *testing.T) {
	st := Scholarly(2)
	// hasSituation edges from Event to Situation must exist (Figure 7)
	n := st.Count(store.Pattern{P: rdf.NewIRI(ScholarlyNS + "hasSituation")})
	if n == 0 {
		t.Fatal("no Event→Situation links")
	}
	// and their subjects are Events
	st.Match(store.Pattern{P: rdf.NewIRI(ScholarlyNS + "hasSituation")}, func(tr rdf.Triple) bool {
		if !st.Has(rdf.NewTriple(tr.S, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(ScholarlyNS+"Event"))) {
			t.Fatalf("subject %v of hasSituation is not an Event", tr.S)
		}
		return false // checking one is enough
	})
}

func TestGenerateRespectsSpec(t *testing.T) {
	spec := Spec{Name: "t", Classes: 10, Instances: 500, ObjectProps: 20, DataProps: 10, LinkFactor: 1, Seed: 3}
	st := Generate(spec)
	classes := st.Classes()
	if len(classes) != 10 {
		t.Fatalf("classes = %d, want 10", len(classes))
	}
	total := 0
	for _, c := range classes {
		total += c.Instances
	}
	if total != 500 {
		t.Fatalf("instances = %d, want 500", total)
	}
}

func TestGenerateZipfSkew(t *testing.T) {
	st := Generate(Spec{Name: "z", Classes: 20, Instances: 10000, Seed: 5})
	classes := st.Classes() // sorted by count desc
	if classes[0].Instances <= classes[len(classes)-1].Instances {
		t.Fatal("expected skewed instance distribution")
	}
	if classes[0].Instances < 2000 {
		t.Fatalf("head class too small for Zipf: %d", classes[0].Instances)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultSpec("d", 4))
	b := Generate(DefaultSpec("d", 4))
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: %d vs %d", a.Len(), b.Len())
	}
}

func TestZipfSplitProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		total := n + rng.Intn(5000)
		parts := zipfSplit(rng, total, n, 1.1)
		sum := 0
		for _, p := range parts {
			if p < 1 {
				return false
			}
			sum += p
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCorpusCardinalities(t *testing.T) {
	c := Corpus(1)
	if len(c) != TotalEndpoints {
		t.Fatalf("corpus size = %d, want %d", len(c), TotalEndpoints)
	}
	var pre, preIdx, newN, newIdx, edp, euodp, iods, overlap int
	urls := map[string]bool{}
	for _, d := range c {
		if urls[d.URL] {
			t.Fatalf("duplicate URL %s", d.URL)
		}
		urls[d.URL] = true
		if d.PreExisting {
			pre++
			if d.Indexable {
				preIdx++
			}
			if d.Portal != "" {
				overlap++
			}
		} else {
			newN++
			if d.Indexable {
				newIdx++
			}
			if d.Portal == "" {
				t.Fatalf("new endpoint %s has no portal", d.Name)
			}
		}
		switch d.Portal {
		case PortalEDP:
			edp++
		case PortalEUODP:
			euodp++
		case PortalIODS:
			iods++
		}
	}
	if pre != PreExistingEndpoints || preIdx != PreExistingIndexable {
		t.Fatalf("pre-existing = %d (%d indexable)", pre, preIdx)
	}
	if newN != NewEndpoints || newIdx != NewIndexable {
		t.Fatalf("new = %d (%d indexable)", newN, newIdx)
	}
	if overlap != PortalOverlap {
		t.Fatalf("overlap = %d, want %d", overlap, PortalOverlap)
	}
	if edp != PortalEDPDatasets || euodp != PortalEUODPDatasets || iods != PortalIODSDatasets {
		t.Fatalf("portal split = %d/%d/%d", edp, euodp, iods)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a, b := Corpus(3), Corpus(3)
	for i := range a {
		if a[i].URL != b[i].URL || a[i].Indexable != b[i].Indexable || a[i].Portal != b[i].Portal {
			t.Fatalf("corpus not deterministic at %d", i)
		}
	}
}

func TestBuildRemoteDeadNeverAnswers(t *testing.T) {
	c := Corpus(2)
	for _, d := range c {
		if d.Dead {
			r := BuildRemote(d, nil, 1)
			if _, err := r.Query(context.Background(), "ASK { ?s ?p ?o }"); err == nil {
				t.Fatalf("dead endpoint %s answered", d.Name)
			}
			return
		}
	}
	t.Fatal("no dead endpoint in corpus")
}

func TestBuildRemoteIndexableAnswers(t *testing.T) {
	c := Corpus(2)
	for _, d := range c {
		if d.Indexable && d.OutageProb == 0 {
			r := BuildRemote(d, nil, 1)
			res, err := r.Query(context.Background(), "ASK { ?s ?p ?o }")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Boolean {
				t.Fatal("indexable endpoint should contain triples")
			}
			return
		}
	}
	t.Fatal("no always-up indexable endpoint in corpus")
}

func TestQuirksForMapping(t *testing.T) {
	if QuirksFor("no-agg").NoAggregates != true {
		t.Fatal("no-agg profile wrong")
	}
	if QuirksFor("capped").MaxRows == 0 {
		t.Fatal("capped profile wrong")
	}
	if QuirksFor("full").NoAggregates {
		t.Fatal("full profile wrong")
	}
	if QuirksFor("unknown").Name != "full" {
		t.Fatal("unknown should default to full")
	}
}
