package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Spec parameterizes a synthetic Linked Data source.
type Spec struct {
	// Name labels the dataset and namespaces its IRIs.
	Name string
	// Classes is the number of instantiated classes.
	Classes int
	// Instances is the total number of instances, distributed over the
	// classes by a Zipf law (big LD sources concentrate instances in a
	// few classes).
	Instances int
	// ObjectProps is the number of distinct object properties linking
	// classes; each is assigned a (domain, range) class pair.
	ObjectProps int
	// DataProps is the number of distinct datatype properties, assigned
	// round-robin to classes.
	DataProps int
	// LinkFactor is the number of outgoing object links per instance.
	LinkFactor int
	// CommunitySeeds injects modular structure: classes are pre-assigned
	// to this many latent groups and object properties prefer intra-group
	// (domain, range) pairs. Zero means fully random wiring.
	CommunitySeeds int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultSpec returns a medium-size source comparable to the mid-tier
// datasets H-BOLD indexes.
func DefaultSpec(name string, seed int64) Spec {
	return Spec{
		Name: name, Classes: 40, Instances: 20000, ObjectProps: 90,
		DataProps: 60, LinkFactor: 2, CommunitySeeds: 5, Seed: seed,
	}
}

// Generate builds the dataset described by the spec.
func Generate(spec Spec) *store.Store {
	if spec.Classes <= 0 {
		spec.Classes = 1
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	b := store.NewBuilder()
	ns := fmt.Sprintf("http://%s.example.org/onto#", spec.Name)
	res := fmt.Sprintf("http://%s.example.org/res/", spec.Name)
	typeT := rdf.NewIRI(rdf.RDFType)

	classes := make([]rdf.Term, spec.Classes)
	for i := range classes {
		classes[i] = rdf.NewIRI(fmt.Sprintf("%sClass%d", ns, i))
	}

	// latent groups for modular structure
	group := make([]int, spec.Classes)
	for i := range group {
		if spec.CommunitySeeds > 0 {
			group[i] = i % spec.CommunitySeeds
		}
	}

	// Zipf instance distribution (s≈1.1) over classes
	sizes := zipfSplit(rng, spec.Instances, spec.Classes, 1.1)

	instances := make([][]rdf.Term, spec.Classes)
	for c := range classes {
		instances[c] = make([]rdf.Term, sizes[c])
		for i := 0; i < sizes[c]; i++ {
			inst := rdf.NewIRI(fmt.Sprintf("%sc%d/i%d", res, c, i))
			instances[c][i] = inst
			b.AddSPO(inst, typeT, classes[c])
		}
	}

	// datatype properties: round-robin over classes, attached to every
	// instance of the class
	for p := 0; p < spec.DataProps; p++ {
		c := p % spec.Classes
		prop := rdf.NewIRI(fmt.Sprintf("%sattr%d", ns, p))
		for i, inst := range instances[c] {
			b.AddSPO(inst, prop, rdf.NewLiteral(fmt.Sprintf("v%d-%d", p, i)))
		}
	}

	// object properties with (domain, range) pairs; prefer intra-group
	for p := 0; p < spec.ObjectProps; p++ {
		var from, to int
		if spec.CommunitySeeds > 0 && rng.Float64() < 0.85 {
			g := rng.Intn(spec.CommunitySeeds)
			from = randClassInGroup(rng, group, g)
			to = randClassInGroup(rng, group, g)
		} else {
			from = rng.Intn(spec.Classes)
			to = rng.Intn(spec.Classes)
		}
		if len(instances[from]) == 0 || len(instances[to]) == 0 {
			continue
		}
		prop := rdf.NewIRI(fmt.Sprintf("%srel%d", ns, p))
		for _, src := range instances[from] {
			for k := 0; k < spec.LinkFactor; k++ {
				dst := instances[to][rng.Intn(len(instances[to]))]
				b.AddSPO(src, prop, dst)
			}
		}
	}
	return b.Store()
}

// zipfSplit distributes total into n parts following a Zipf law with
// exponent s, guaranteeing each part at least 1.
func zipfSplit(rng *rand.Rand, total, n int, s float64) []int {
	if total < n {
		total = n
	}
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		weights[i] = 1.0 / math.Pow(float64(i+1), s)
		sum += weights[i]
	}
	// shuffle which class gets which rank so class 0 is not always biggest
	perm := rng.Perm(n)
	out := make([]int, n)
	assigned := 0
	for i, w := range weights {
		v := int(float64(total) * w / sum)
		if v < 1 {
			v = 1
		}
		out[perm[i]] = v
		assigned += v
	}
	// absorb rounding drift while keeping every part >= 1: grow the head
	// part, or shave the largest parts when over-assigned
	diff := total - assigned
	if diff > 0 {
		out[perm[0]] += diff
	}
	for diff < 0 {
		big := 0
		for i := 1; i < n; i++ {
			if out[i] > out[big] {
				big = i
			}
		}
		take := -diff
		if take > out[big]-1 {
			take = out[big] - 1
		}
		if take == 0 {
			break // all parts are 1; total == n by construction
		}
		out[big] -= take
		diff += take
	}
	return out
}

func randClassInGroup(rng *rand.Rand, group []int, g int) int {
	var members []int
	for i, gi := range group {
		if gi == g {
			members = append(members, i)
		}
	}
	if len(members) == 0 {
		return rng.Intn(len(group))
	}
	return members[rng.Intn(len(members))]
}
