package extraction

import (
	"context"
	"fmt"

	"repro/internal/endpoint"
	"repro/internal/rdf"
	"repro/internal/store"
)

// MirrorCorpus replicates the endpoint's full statement set into dst,
// paging `SELECT ?s ?p ?o` with the same ORDER BY + LIMIT/OFFSET
// discipline the index extraction uses, so it works against endpoints
// that truncate unordered results. Each page is read off the wire first
// and then inserted and flushed as one durable batch under dst's request
// lock, so a page never interleaves with an update's pending batch: a
// crash mid-mirror loses at most the page in flight, and the recovered
// store is a consistent prefix of the corpus. It returns the
// number of rows mirrored (triples seen, not deduplicated).
func (e *Extractor) MirrorCorpus(ctx context.Context, c endpoint.Client, dst store.Backend) (int, error) {
	page := e.pageSize()
	total := 0
	batch := make([]rdf.Triple, 0, page)
	for off := 0; ; off += page {
		batch = batch[:0]
		err := e.streamRows(ctx, c, fmt.Sprintf(
			`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT %d OFFSET %d`, page, off),
			[]string{"s", "p", "o"}, func(row []rdf.Term) {
				batch = append(batch, rdf.Triple{S: row[0], P: row[1], O: row[2]})
			})
		if err != nil {
			return total, err
		}
		if err := flushPage(dst, batch); err != nil {
			return total, err
		}
		total += len(batch)
		if len(batch) < page {
			return total, nil
		}
	}
}

// flushPage lands one page in dst as one batch under its request lock.
func flushPage(dst store.Backend, page []rdf.Triple) error {
	lock := dst.WriteLock()
	lock.Lock()
	defer lock.Unlock()
	for _, t := range page {
		if _, err := dst.Insert(t); err != nil {
			return err
		}
	}
	return dst.Flush()
}
