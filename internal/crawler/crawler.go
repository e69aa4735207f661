// Package crawler implements §3.3's automatic insertion of SPARQL
// endpoints: it runs the paper's Listing 1 query against each open data
// portal, extracts the advertised endpoint URLs, deduplicates them
// against the registry, and registers the new ones.
package crawler

import (
	"context"
	"fmt"
	"time"

	"repro/internal/endpoint"
	"repro/internal/portal"
	"repro/internal/registry"
)

// PortalReport summarizes one portal crawl.
type PortalReport struct {
	// Portal is the portal name.
	Portal string
	// Discovered is the number of SPARQL endpoints the Listing 1 query
	// returned.
	Discovered int
	// AlreadyListed is how many of those were already in the registry.
	AlreadyListed int
	// Added is how many new endpoints were registered.
	Added int
}

// Report summarizes a full crawl across all portals.
type Report struct {
	Portals []PortalReport
	// ListedBefore / ListedAfter are the registry sizes around the crawl.
	ListedBefore, ListedAfter int
}

// TotalDiscovered sums discoveries over portals.
func (r *Report) TotalDiscovered() int {
	n := 0
	for _, p := range r.Portals {
		n += p.Discovered
	}
	return n
}

// TotalAdded sums newly added endpoints over portals.
func (r *Report) TotalAdded() int {
	n := 0
	for _, p := range r.Portals {
		n += p.Added
	}
	return n
}

// Crawl runs the Listing 1 query against every portal and merges the
// results into the registry. Each portal's catalog is consumed as a row
// stream, so canceling ctx aborts a crawl mid-catalog.
func Crawl(ctx context.Context, portals []*portal.Portal, reg *registry.Registry, now time.Time) (*Report, error) {
	rep := &Report{ListedBefore: reg.Len()}
	for _, p := range portals {
		pr := PortalReport{Portal: p.Name}
		rs, err := endpoint.Stream(ctx, p.Client(), portal.Listing1)
		if err != nil {
			return nil, fmt.Errorf("crawler: portal %s: %w", p.Name, err)
		}
		// collect the catalog first, merge only after the stream ended
		// cleanly: a portal that dies mid-catalog (canceled context,
		// broken stream) must contribute zero entries, like a failed
		// materialized query always did
		type candidate struct{ url, title string }
		var found []candidate
		seen := map[string]bool{}
		for row := range rs.Project([]string{"url", "title"}).Terms() {
			url := row[0].Value
			if url == "" || seen[url] {
				continue
			}
			seen[url] = true
			found = append(found, candidate{url: url, title: row[1].Value})
		}
		err = rs.Err()
		rs.Close()
		if err != nil {
			return nil, fmt.Errorf("crawler: portal %s: %w", p.Name, err)
		}
		for _, c := range found {
			pr.Discovered++
			if reg.Has(c.url) {
				pr.AlreadyListed++
				continue
			}
			reg.Add(registry.Entry{
				URL: c.url, Title: c.title,
				Source: registry.SourcePortal, Portal: p.Name,
				AddedAt: now,
			})
			pr.Added++
		}
		rep.Portals = append(rep.Portals, pr)
	}
	rep.ListedAfter = reg.Len()
	return rep, nil
}
