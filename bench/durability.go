package main

import (
	"fmt"
	"net/http"
	"time"
)

// durability is the disk workload's crash check. The server was killed
// with SIGKILL at the end of the window — no shutdown hook, no final
// flush — and is restarted from the data dir alone. Every batch whose
// insert was acknowledged and not yet deleted must be readable, and every
// batch whose delete was acknowledged must be gone. A lost write fails
// the run.
//
// What this proves and what it does not: SIGKILL drops the process but
// leaves the operating system's page cache intact, so this is
// process-crash durability (the WAL record was written and the server
// did not lie about it), not power-loss durability, and the fsync
// latencies inside the update numbers are this sandbox's filesystem's,
// not a storage device's.
func (r *run) durability() error {
	r.srv.kill()
	p, restart, err := r.e.spawn("sparqld", []string{"-quiet", "-data-dir", r.dataDir}, sparqldReady)
	if err != nil {
		return fmt.Errorf("durability: restart from %s: %w", r.dataDir, err)
	}
	r.srv = p
	r.res.restartMS = float64(restart) / float64(time.Millisecond)
	tr := newTransport(1)
	defer tr.CloseIdleConnections()
	c := &client{r: r, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
	check := func(b *batch, want int) {
		// the first and the last subject written bound the batch
		for _, s := range []string{b.subjects[0], b.subjects[len(b.subjects)-1]} {
			err := c.probe(b.ds, s, want)
			r.res.checks.note(chkDurable, err)
			if err != nil {
				r.res.lostWrites++
			}
		}
	}
	for _, cl := range r.clients {
		for _, b := range cl.gen.smallLive {
			check(b, triplesPerSubj)
		}
		for _, b := range cl.gen.bulkLive {
			check(b, triplesPerSubj)
		}
		for _, b := range cl.gen.deleted {
			check(b, 0)
		}
	}
	return nil
}
