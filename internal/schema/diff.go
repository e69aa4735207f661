package schema

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Diff describes how a source's schema changed between two extractions.
// Section 3.1 motivates the weekly re-extraction policy with exactly
// this phenomenon: "the structure and also the content of a LD could
// change very often"; the diff lets the tool (and its operators) see
// what a refresh actually changed.
type Diff struct {
	// AddedClasses and RemovedClasses are class IRIs present in only one
	// of the two summaries, sorted.
	AddedClasses   []string `json:"addedClasses"`
	RemovedClasses []string `json:"removedClasses"`
	// InstanceDelta maps class IRIs to the change in instance count
	// (new − old) for classes present in both summaries; zero deltas are
	// omitted.
	InstanceDelta map[string]int `json:"instanceDelta,omitempty"`
	// AddedEdges and RemovedEdges are schema arcs present in only one
	// summary, rendered as "from --property--> to".
	AddedEdges   []string `json:"addedEdges"`
	RemovedEdges []string `json:"removedEdges"`
	// TriplesDelta is the change in total triple count.
	TriplesDelta int `json:"triplesDelta"`
}

// Unchanged reports whether the two summaries have identical structure
// and counts.
func (d *Diff) Unchanged() bool {
	return len(d.AddedClasses) == 0 && len(d.RemovedClasses) == 0 &&
		len(d.InstanceDelta) == 0 && len(d.AddedEdges) == 0 &&
		len(d.RemovedEdges) == 0 && d.TriplesDelta == 0
}

// Compare diffs the new summary against the old one in one ordered walk.
// Classes are looked up through each summary's IRI index; arcs are merged
// in Build's (From, To, Property) order, and only an arc present in one
// summary alone is spelled out. A summary whose arcs are not in that order
// (a literal, say) is walked through a sorted copy.
func Compare(old, new *Summary) *Diff {
	d := &Diff{TriplesDelta: new.Triples - old.Triples}
	for i, n := range new.Nodes {
		if last, _ := new.NodeIndex(n.IRI); last != i {
			continue // a class listed twice counts once, as its last listing
		}
		if j, ok := old.NodeIndex(n.IRI); !ok {
			d.AddedClasses = append(d.AddedClasses, n.IRI)
		} else if delta := n.Instances - old.Nodes[j].Instances; delta != 0 {
			if d.InstanceDelta == nil {
				d.InstanceDelta = map[string]int{}
			}
			d.InstanceDelta[n.IRI] = delta
		}
	}
	for i, n := range old.Nodes {
		if last, _ := old.NodeIndex(n.IRI); last == i {
			if _, ok := new.NodeIndex(n.IRI); !ok {
				d.RemovedClasses = append(d.RemovedClasses, n.IRI)
			}
		}
	}
	sort.Strings(d.AddedClasses)
	sort.Strings(d.RemovedClasses)

	oldArcs, newArcs := sortedArcs(old.Edges), sortedArcs(new.Edges)
	i, j := 0, 0
	for i < len(oldArcs) || j < len(newArcs) {
		c := 0
		switch {
		case i == len(oldArcs):
			c = 1
		case j == len(newArcs):
			c = -1
		default:
			c = compareArcs(oldArcs[i], newArcs[j])
		}
		if c < 0 {
			d.RemovedEdges = append(d.RemovedEdges, arcKey(oldArcs[i]))
		} else if c > 0 {
			d.AddedEdges = append(d.AddedEdges, arcKey(newArcs[j]))
		}
		if c <= 0 {
			i = pastArc(oldArcs, i)
		}
		if c >= 0 {
			j = pastArc(newArcs, j)
		}
	}
	d.AddedEdges = unspelled(d.AddedEdges, oldArcs)
	d.RemovedEdges = unspelled(d.RemovedEdges, newArcs)
	return d
}

// arcKey spells an arc the way a Diff reports it.
func arcKey(e Edge) string { return e.From + " --" + e.Property + "--> " + e.To }

// sortedArcs returns arcs in compareArcs order, copying only if they are
// not in it already.
func sortedArcs(arcs []Edge) []Edge {
	if slices.IsSortedFunc(arcs, compareArcs) {
		return arcs
	}
	arcs = slices.Clone(arcs)
	slices.SortFunc(arcs, compareArcs)
	return arcs
}

// pastArc returns the index after arcs[i] and its duplicates.
func pastArc(arcs []Edge, i int) int {
	j := i + 1
	for j < len(arcs) && compareArcs(arcs[i], arcs[j]) == 0 {
		j++
	}
	return j
}

// unspelled sorts the keys of arcs found in one summary alone, drops
// repeats, and drops any key an arc of the other summary spells too. Two
// different arcs spell one key only when an IRI holds a separator, so a
// key with exactly one " --" and one "--> " is kept without looking.
func unspelled(keys []string, other []Edge) []string {
	sort.Strings(keys)
	keys = slices.Compact(keys)
	var spelled map[string]bool
	keys = slices.DeleteFunc(keys, func(k string) bool {
		if strings.Count(k, " --") == 1 && strings.Count(k, "--> ") == 1 {
			return false
		}
		if spelled == nil {
			spelled = make(map[string]bool, len(other))
			for _, e := range other {
				spelled[arcKey(e)] = true
			}
		}
		return spelled[k]
	})
	if len(keys) == 0 {
		return nil
	}
	return keys
}

// String renders a compact human-readable change report.
func (d *Diff) String() string {
	if d.Unchanged() {
		return "no changes"
	}
	var sb strings.Builder
	write := func(format string, args ...any) { fmt.Fprintf(&sb, format, args...) }
	if len(d.AddedClasses) > 0 {
		write("+%d classes", len(d.AddedClasses))
	}
	if len(d.RemovedClasses) > 0 {
		if sb.Len() > 0 {
			write(", ")
		}
		write("-%d classes", len(d.RemovedClasses))
	}
	if len(d.InstanceDelta) > 0 {
		if sb.Len() > 0 {
			write(", ")
		}
		write("%d classes changed size", len(d.InstanceDelta))
	}
	if len(d.AddedEdges) > 0 || len(d.RemovedEdges) > 0 {
		if sb.Len() > 0 {
			write(", ")
		}
		write("+%d/-%d edges", len(d.AddedEdges), len(d.RemovedEdges))
	}
	if d.TriplesDelta != 0 {
		if sb.Len() > 0 {
			write(", ")
		}
		write("%+d triples", d.TriplesDelta)
	}
	return sb.String()
}
