package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/endpoint"
	"repro/internal/extraction"
	"repro/internal/federation"
	"repro/internal/kv"
	"repro/internal/rdf"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/snapcache"
	"repro/internal/sparql"
	"repro/internal/sparql/results"
	"repro/internal/store"
	"repro/internal/store/disk"
	"repro/internal/turtle"
	"repro/internal/update"
	"repro/internal/viz"
)

// The traced run replays the socket run's op sequence — same pool, same
// roles, same seed — in this process, one op at a time, through each
// layer's public functions, with a span around every call. It is bounded
// by time and by op count so a slow tier (30 ms per disk query) and a
// fast one (0.2 ms per cached view) both finish promptly.
const replayMaxOps = 6000

// replaySeq deals the replay's ops: the sequence of the first client of
// each role, as newGenerator gave it to the socket run. With one role
// that is client 0's sequence as it was sent. With several (the disk
// workload's reader and writer) the replay does what the server's
// scheduler does for closed-loop clients, one op at a time: each role
// owns an equal share of the time per client it has, and the next op
// comes from the role that has used least of its share. So a reader gets
// through many reads while they are cheap and few while they are dear,
// beside a writer that is always writing — the states of the store the
// replayed reads meet are the states the served reads met.
type replaySeq struct {
	gens    []*generator
	clients []int           // socket clients per role
	spent   []time.Duration // what the role's replayed ops have taken
	last    int             // the role next dealt from
}

func (r *run) newReplaySeq() *replaySeq {
	n := len(r.w.roles)
	s := &replaySeq{clients: make([]int, n), spent: make([]time.Duration, n)}
	for i, m := range r.w.roles {
		s.gens = append(s.gens, newGenerator(r.pool, m, r.cfg.seed, i))
	}
	for i := 0; i < r.cfg.clients; i++ {
		s.clients[i%n]++
	}
	return s
}

func (s *replaySeq) next() *op {
	s.last = 0
	for i := range s.gens {
		if s.spent[i]*time.Duration(s.clients[s.last]) < s.spent[s.last]*time.Duration(s.clients[i]) {
			s.last = i
		}
	}
	return s.gens[s.last].next()
}

// took books the time the op just dealt needed.
func (s *replaySeq) took(d time.Duration) { s.spent[s.last] += d }

// layers accumulates the traced run.
type layers struct {
	r        *run
	t        *tracer
	m        map[string]float64
	withheld map[string]string // percentile metrics the ten-beyond rule withheld, with the reason
	ok       bool              // in-process answers matched the oracle

	classSum  [numClasses]sample // µs of layer time per op, by class
	drainNS   int64
	drainRows int
	queries   int
	writeNS   [len(formats)]int64
	writeB    [len(formats)]int64
	writeRows [len(formats)]int
	insertNS  int64
	insertN   int
	deleteNS  int64
	deleteN   int
	fedNS     int64
	fedRows   int
	notes     []string
}

// spanStore puts a span around the snapshot a query takes of its store:
// Store.Reader() on the memory tier, a kv snapshot on the disk tier.
type spanStore struct {
	store.Queryable
	t    *tracer
	name string
}

func (s spanStore) Snapshot() store.ReaderAPI {
	i := s.t.begin(s.name)
	defer s.t.end(i)
	return s.Queryable.Snapshot()
}

// spanBackend additionally puts a span around the commit of an update.
type spanBackend struct {
	store.Backend
	t        *tracer
	snapshot string
	flush    string
}

func (b spanBackend) Snapshot() store.ReaderAPI {
	i := b.t.begin(b.snapshot)
	defer b.t.end(i)
	return b.Backend.Snapshot()
}

func (b spanBackend) Flush() error {
	i := b.t.begin(b.flush)
	defer b.t.end(i)
	return b.Backend.Flush()
}

// countWriter discards and counts, standing in for the socket.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

var formatEnum = [len(formats)]results.Format{results.JSON, results.CSV, results.TSV, results.XML}

// query runs one pooled query through parse → open → drain → serialize.
// Rows are drained before they are serialized (the servers interleave the
// two) so that each layer's time is its own.
func (l *layers) query(o *op, st store.Queryable, serialize bool) error {
	t := l.t
	var q *sparql.Query
	var err error
	t.in("sparql.parse", func() { q, err = sparql.Parse(o.q.text) })
	if err != nil {
		return err
	}
	var rs *sparql.RowSeq
	t.in("sparql.open", func() { rs, err = q.Stream(context.Background(), st) })
	if err != nil {
		return err
	}
	var rows []sparql.Binding
	di := t.begin("sparql.drain." + o.kind.String())
	for row := range rs.All() {
		rows = append(rows, row)
	}
	err = rs.Err()
	rs.Close()
	t.end(di)
	if err != nil {
		return err
	}
	l.drainNS += t.spans[di].self()
	l.drainRows += len(rows)
	l.queries++
	if !o.q.rowsOK(len(rows), l.r.w.rw) {
		l.ok = false
		l.notes = append(l.notes, fmt.Sprintf("traced replay: %d rows in-process, oracle has %d: %s", len(rows), o.q.rows, o.q.text))
	}
	if serialize {
		var cw countWriter
		wi := t.begin("results.write." + formats[o.format])
		rw := results.NewWriter(formatEnum[o.format], &cw, rs.Vars)
		for _, row := range rows {
			rw.WriteRow(row)
		}
		rw.Close()
		t.end(wi)
		l.writeNS[o.format] += t.spans[wi].dur()
		l.writeB[o.format] += cw.n
		l.writeRows[o.format] += len(rows)
	}
	return nil
}

// updateShape names an update op the way the update.apply_us metrics do.
func updateShape(k opKind) string { return strings.TrimPrefix(k.String(), "update_") }

// apply runs one update through parse → apply (→ commit) on be and
// returns the net delta.
func (l *layers) apply(o *op, be store.Backend) (*update.Delta, error) {
	t := l.t
	var u *sparql.Update
	var err error
	t.in("sparql.update_parse", func() { u, err = sparql.ParseUpdate(o.u.text) })
	if err != nil {
		return nil, err
	}
	var d *update.Delta
	ai := t.begin("update.apply." + updateShape(o.kind))
	d, err = update.Apply(context.Background(), be, u)
	t.end(ai)
	if err != nil {
		return nil, err
	}
	if len(d.Added) != o.u.added || len(d.Removed) != o.u.removed {
		l.ok = false
		l.notes = append(l.notes, fmt.Sprintf("traced replay: %s applied +%d −%d, batch is +%d −%d", o.kind, len(d.Added), len(d.Removed), o.u.added, o.u.removed))
	}
	if o.kind != kUpdWhere {
		// per-triple store cost: the apply span minus its commit child
		if o.u.added > 0 {
			l.insertNS += t.spans[ai].self()
			l.insertN += o.u.added
		} else {
			l.deleteNS += t.spans[ai].self()
			l.deleteN += o.u.removed
		}
	}
	return d, nil
}

// closeOp ends an op's root span and books its layer time: the time its
// child spans cover, which leaves the harness's own glue out.
func (l *layers) closeOp(root int, k opKind) {
	l.t.end(root)
	l.classSum[k.class()].add(float64(l.t.spans[root].child) / 1e3)
}

func perUnit(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// traced runs the in-process replay and assembles every per-layer metric:
// the replay's spans, the layer microbenchmarks, and the socket run's own
// per-op and counter figures.
func (r *run) traced(rep *report) (*layers, error) {
	l := &layers{r: r, t: newTracer(), m: map[string]float64{}, withheld: map[string]string{}, ok: true}
	var err error
	if r.w.serve {
		err = l.replayServe()
	} else {
		err = l.replaySparqld()
	}
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	l.fromSpans()
	l.fromSocket()
	l.reconcile(rep)
	rep.Notes = append(rep.Notes, l.notes...)
	rep.LayerTable = l.t.table()
	if !l.ok {
		rep.Notes = append(rep.Notes, "the traced replay disagreed with the oracle (see above): the run is not correct")
	}
	if !r.cfg.quiet {
		fmt.Fprintf(os.Stderr, "%-28s %7s %12s %12s %7s\n", "layer (traced, in-process)", "spans", "mean us", "self us", "share")
		for _, row := range rep.LayerTable {
			fmt.Fprintf(os.Stderr, "%-28s %7d %12.1f %12.1f %6.1f%%\n", row.Layer, row.Spans, row.MeanUS, row.SelfMeanUS, 100*row.SelfShare)
		}
	}
	return l, l.t.write(filepath.Join(r.e.out, r.w.name+".trace.json"))
}

// fromSpans turns span statistics into the named metrics.
func (l *layers) fromSpans() {
	st, m := l.t.stats(), l.m
	m["sparql.parse_us"] = st["sparql.parse"].meanUS()
	m["sparql.open_us"] = st["sparql.open"].selfMeanUS()
	for _, k := range drainKinds {
		m["sparql.drain_us."+k.String()] = st["sparql.drain."+k.String()].selfMeanUS()
	}
	m["sparql.drain_ns_per_row"] = perUnit(l.drainNS, l.drainRows)
	if l.queries > 0 {
		m["sparql.rows_per_query"] = float64(l.drainRows) / float64(l.queries)
	}
	m["sparql.update_parse_us"] = st["sparql.update_parse"].meanUS()
	for i, f := range formats {
		m["results.write_ns_per_row."+f] = perUnit(l.writeNS[i], l.writeRows[i])
		m["results.bytes_per_row."+f] = perUnit(l.writeB[i], l.writeRows[i])
	}
	m["store.reader_us"] = st["store.reader"].meanUS()
	m["disk.snapshot_us"] = st["disk.snapshot"].meanUS()
	m["disk.flush_us"] = st["disk.flush"].meanUS()
	tier := "store."
	if l.r.w.disk {
		tier = "disk."
		m["disk.insert_us_per_triple"] = perUnit(l.insertNS, l.insertN) / 1e3
	} else {
		m[tier+"insert_us_per_triple"] = perUnit(l.insertNS, l.insertN) / 1e3
		m[tier+"delete_us_per_triple"] = perUnit(l.deleteNS, l.deleteN) / 1e3
	}
	for _, s := range updateShapes {
		m["update.apply_us."+s] = st["update.apply."+s].selfMeanUS()
	}
	for _, n := range []string{"extraction.apply_delta", "schema.build", "cluster.build", "schema.compare",
		"docstore.put", "docstore.get", "core.apply_update", "core.explore", "federation.open",
		"server.hit", "server.miss", "server.revalidate_304", "server.query"} {
		m[n+"_us"] = st[n].meanUS()
	}
	for _, v := range viewKinds {
		m["viz.render_us."+v] = st["viz.render."+v].meanUS()
	}
	for _, v := range modelKinds {
		m["viz.model_us."+v] = st["viz.model."+v].meanUS()
	}
	m["trace.span_overhead_ns"] = spanOverheadNS()
}

// fromSocket adds what only the real server over a real socket can say.
func (l *layers) fromSocket() {
	res, m := l.r.res, l.m
	m["endpoint.rtt_floor_us"] = res.rttFloorUS
	for k := opKind(0); k < numKinds; k++ {
		l.pct("http.p50_ms."+k.String(), &res.lat[k], 50)
		l.pct("http.p99_ms."+k.String(), &res.lat[k], 99)
	}
	l.pct("http.first_byte_p50_ms.scan", &res.firstByte, 50)
	l.pct("http.read_p95_ms", &res.reads, 95)
	m["server.peak_rss_mb"] = res.peakRSSMiB
	m["bench.admit_wait_ratio"] = float64(res.admitWait) / (float64(len(l.r.clients)) * float64(l.r.cfg.seconds))
	c0, c1 := res.cache[0], res.cache[1]
	if lookups := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses) + (c1.Collapsed - c0.Collapsed); lookups > 0 {
		m["snapcache.hit_ratio"] = float64(c1.Hits-c0.Hits) / float64(lookups)
	}
	m["snapcache.invalidations"] = float64(c1.Invalidations - c0.Invalidations)
	m["snapcache.evictions"] = float64(c1.Evictions - c0.Evictions)
	var pruned, contacted float64
	for src, after := range res.fedStats[1] {
		before := res.fedStats[0][src]
		pruned += after["pruned"] - before["pruned"]
		contacted += after["queries"] - before["queries"]
	}
	if pruned+contacted > 0 {
		m["federation.pruned_ratio"] = pruned / (pruned + contacted)
	}
	m["kv.flushes"] = float64(res.flushes)
	m["kv.compactions"] = float64(res.compacts)
	m["disk.restart_ms"] = res.restartMS
}

// pct books a percentile of the socket run: its value, or — when the
// workload issued the op but too rarely for the ten-beyond rule — the
// reason it is withheld. An op the workload never issues stays 0, like
// any bypassed layer.
func (l *layers) pct(name string, s *sample, p float64) {
	if v, ok := s.pct(p); ok {
		l.m[name] = v
	} else if s.n() > 0 {
		l.withheld[name] = withheldWhy(s, p)
	}
}

// reconcile compares, per op class, what the layers cost in-process with
// what the request cost over the socket.
func (l *layers) reconcile(rep *report) {
	res, m := l.r.res, l.m
	for c := opClass(0); c < numClasses; c++ {
		var sock sample
		for k := opKind(0); k < numKinds; k++ {
			if k.class() == c {
				sock.merge(&res.lat[k])
			}
		}
		if sock.n() == 0 || l.classSum[c].n() == 0 {
			continue
		}
		sockUS, layerUS := sock.mean()*1e3, l.classSum[c].mean()
		gap := (sockUS - (res.rttFloorUS + layerUS)) / sockUS
		if gap < 0 {
			gap = -gap
		}
		m["trace.reconcile_gap."+c.String()] = gap
		switch c {
		case cLookup, cAnalytic, cScan, cUpdate:
			m["endpoint.residual_us."+c.String()] = sockUS - layerUS
		}
		line := fmt.Sprintf("%s: socket mean %.0f us = rtt floor %.0f + layers %.0f + residual %.0f (gap %.2f)",
			c, sockUS, res.rttFloorUS, layerUS, sockUS-res.rttFloorUS-layerUS, gap)
		if !l.r.cfg.quiet {
			fmt.Fprintln(os.Stderr, "reconcile", line)
		}
		rep.Notes = append(rep.Notes, "reconcile "+line)
		// layers are inside the request: they cannot cost more than it
		if layerUS > 1.1*sockUS {
			rep.Residuals = append(rep.Residuals, fmt.Sprintf("%s: layers (%.0f us) exceed 1.1 × the socket mean (%.0f us)", c, layerUS, sockUS))
		}
		if sockUS >= 5*res.rttFloorUS && gap > 0.25 {
			rep.Residuals = append(rep.Residuals, fmt.Sprintf("%s: %.0f%% of the socket mean (%.0f us) is explained by neither the rtt floor nor any traced layer", c, 100*gap, sockUS))
		}
	}
	// the cascade must add up: ApplyUpdate as one call against its parts
	if whole := m["core.apply_update_us"]; whole > 0 {
		st := l.t.stats()
		parts := m["sparql.update_parse_us"] + m["docstore.get_us"] + m["extraction.apply_delta_us"] + m["schema.build_us"] +
			m["cluster.build_us"] + m["schema.compare_us"] + perUnit(st["docstore.put"].total, st["core.apply_update"].n)/1e3
		var applyNS int64
		for _, s := range updateShapes {
			if a := st["update.apply."+s]; a != nil {
				applyNS += a.total
			}
		}
		parts += perUnit(applyNS, st["core.apply_update"].n) / 1e3
		rep.Notes = append(rep.Notes, fmt.Sprintf("cascade: core.apply_update_us %.0f vs the sum of its parts %.0f (ratio %.2f)", whole, parts, parts/whole))
		if parts < 0.9*whole || parts > 1.1*whole {
			rep.Residuals = append(rep.Residuals, fmt.Sprintf("update cascade: its parts (%.0f us) are not within 10 %% of core.apply_update_us (%.0f us)", parts, whole))
		}
	}
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// copyDir copies a flat directory of regular files.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replaySparqld is the traced run of the two sparqld workloads.
func (l *layers) replaySparqld() error {
	r, t, m := l.r, l.t, l.m
	d := r.pool.datasets[0]
	var st store.Queryable
	var be store.Backend
	var ds *disk.Store
	if r.w.disk {
		// the pristine copy was taken right after set-up, before any write
		dir := filepath.Join(r.e.work, "replay")
		if err := copyDir(r.pristine, dir); err != nil {
			return err
		}
		start := time.Now()
		var err error
		ds, err = disk.Open(dir, disk.Options{})
		if err != nil {
			return err
		}
		defer ds.Close()
		m["disk.cold_open_ms"] = float64(time.Since(start)) / 1e6
		m["disk.bytes_per_triple"] = float64(dirBytes(dir)) / float64(ds.Len())
		sb := spanBackend{Backend: ds, t: t, snapshot: "disk.snapshot", flush: "disk.flush"}
		st, be = sb, sb
	} else {
		raw, err := os.ReadFile(r.corpusPath)
		if err != nil {
			return err
		}
		start := time.Now()
		g, err := turtle.Parse(string(raw))
		if err != nil {
			return err
		}
		parsed := time.Now()
		mem := store.FromGraph(g)
		m["turtle.parse_ns_per_triple"] = float64(parsed.Sub(start)) / float64(g.Len())
		m["store.load_ns_per_triple"] = float64(time.Since(parsed)) / float64(g.Len())
		st = spanStore{Queryable: mem, t: t, name: "store.reader"}
		storeBench(mem, d, m)
	}
	seq := r.newReplaySeq()
	begin := time.Now()
	for n := 0; n < replayMaxOps && time.Since(begin) < r.cfg.replay; n++ {
		o := seq.next()
		root := t.root("op." + o.kind.String())
		var err error
		if o.q != nil {
			err = l.query(o, st, true)
		} else {
			_, err = l.apply(o, be)
		}
		l.closeOp(root, o.kind)
		seq.took(time.Duration(t.spans[root].dur()))
		if err != nil {
			return fmt.Errorf("%s: %w", o.id(), err)
		}
	}
	if ds != nil {
		hits, misses := ds.CacheStats()
		if hits+misses > 0 {
			m["disk.termcache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		diskBench(ds, m)
		return kvBench(r.e, r.pristine, d.st.Len(), m, l)
	}
	return nil
}

// storeBench times the memory tier's read primitives directly.
func storeBench(st *store.Store, d *dataset, m map[string]float64) {
	rd := st.Reader()
	var terms []rdf.Term
	for _, c := range d.classes {
		for _, inst := range c.instances {
			terms = append(terms, rdf.NewIRI(inst))
		}
	}
	start := time.Now()
	for _, tm := range terms {
		rd.Lookup(tm)
	}
	m["store.lookup_ns"] = perUnit(int64(time.Since(start)), len(terms))
	typeID := rd.Lookup(rdf.NewIRI(rdf.RDFType))
	n := 0
	start = time.Now()
	rd.MatchIDs(store.IDPattern{P: typeID}, func(_, _, _ store.ID) bool { n++; return true })
	m["store.match_ns_per_triple"] = perUnit(int64(time.Since(start)), n)
}

// diskBench times the disk tier's read primitives on a fresh snapshot.
func diskBench(ds *disk.Store, m map[string]float64) {
	rd := ds.Snapshot()
	typeID := rd.Lookup(rdf.NewIRI(rdf.RDFType))
	n := 0
	start := time.Now()
	rd.MatchIDs(store.IDPattern{P: typeID}, func(_, _, _ store.ID) bool { n++; return true })
	m["disk.match_ns_per_triple"] = perUnit(int64(time.Since(start)), n)
	max := rd.MaxID()
	if max > 20000 {
		max = 20000
	}
	start = time.Now()
	for id := store.ID(1); id <= max; id++ {
		rd.Term(id)
	}
	m["disk.term_ns"] = perUnit(int64(time.Since(start)), int(max))
}

// kvBench opens a second copy of the seeded data dir with the storage
// engine alone and drives it with the disk store's own key shapes (one
// table byte plus three big-endian IDs per permutation, empty values).
// The memtable is 256 KiB instead of the CLI's 4 MiB so several flush
// cycles and a compaction complete within the bench; the counts repeat
// exactly because there is one writer.
func kvBench(e *env, pristine string, triples int, m map[string]float64, l *layers) error {
	dir := filepath.Join(e.work, "kv")
	if err := copyDir(pristine, dir); err != nil {
		return err
	}
	db, err := kv.Open(dir, kv.Options{MemtableBytes: 256 << 10})
	if err != nil {
		return err
	}
	defer db.Close()
	open := db.Stats()
	m["kv.segments"] = float64(open.Segments)
	m["kv.segment_bytes_per_triple"] = float64(open.SegmentBytes) / float64(triples)

	snap := db.Snapshot()
	var keys []string
	n := 0
	start := time.Now()
	snap.Scan("p", kv.PrefixEnd("p"), func(k string, _ []byte) bool {
		if n%64 == 0 {
			keys = append(keys, k)
		}
		n++
		return n < 200000
	})
	m["kv.scan_ns_per_key"] = perUnit(int64(time.Since(start)), n)
	snap.Release()
	start = time.Now()
	for _, k := range keys {
		db.Get(k)
	}
	m["kv.get_us"] = perUnit(int64(time.Since(start)), len(keys)) / 1e3

	const batches, perBatch = 150, 100
	var applyNS, snapNS int64
	var snaps, snapKeys int
	id := uint32(1 << 30)
	key := func(table byte, a, b, c uint32) string {
		return string([]byte{table,
			byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a),
			byte(b >> 24), byte(b >> 16), byte(b >> 8), byte(b),
			byte(c >> 24), byte(c >> 16), byte(c >> 8), byte(c)})
	}
	for b := 0; b < batches; b++ {
		var batch kv.Batch
		for i := 0; i < perBatch; i++ {
			id++
			batch.Put(key('s', id, 7, id+1), nil)
			batch.Put(key('p', 7, id+1, id), nil)
			batch.Put(key('o', id+1, id, 7), nil)
		}
		start := time.Now()
		if err := db.Apply(&batch); err != nil {
			return err
		}
		applyNS += int64(time.Since(start))
		if b%3 == 0 {
			snapKeys += db.Stats().MemtableKeys
			start = time.Now()
			s := db.Snapshot()
			snapNS += int64(time.Since(start))
			s.Release()
			snaps++
		}
	}
	end := db.Stats()
	m["kv.apply_us"] = perUnit(applyNS, batches) / 1e3
	m["kv.snapshot_us"] = perUnit(snapNS, snaps) / 1e3
	m["kv.memtable_keys_at_snapshot"] = perUnit(int64(snapKeys), snaps)
	m["kv.wal_bytes_per_triple"] = float64(end.WALBytes-open.WALBytes) / float64(batches*perBatch)
	l.notes = append(l.notes, fmt.Sprintf("kv bench (256 KiB memtable, one writer, %d batches of %d triples): %d flushes, %d compactions",
		batches, perBatch, end.Flushes-open.Flushes, end.Compactions-open.Compactions))
	return nil
}

// replayServe is the traced run of the two serve workloads. State A is a
// core.HBOLD built the way cmd/hbold builds it, driven through
// server.ServeHTTP and ApplyUpdate as whole calls; state B is the same
// corpus with the index, summary and documents held by this package, so
// the update cascade can be replayed one public function at a time.
func (l *layers) replayServe() error {
	r, t, m := l.r, l.t, l.m
	ctx := context.Background()
	a, b := serveCorpus(serveDatasets), serveCorpus(serveDatasets)
	tool := core.New(docstore.MustOpenMem(), clock.Real{})
	tool.Cache = snapcache.New(64 << 20)
	dbB := docstore.MustOpenMem()
	storeA, storeB := map[string]*store.Store{}, map[string]*store.Store{}
	summaryB := map[string]*schema.Summary{}
	var extractNS int64
	for i := range a {
		url := a[i].url
		storeA[url], storeB[url] = a[i].st, b[i].st
		tool.Registry.Add(registry.Entry{URL: url, Title: url})
		tool.Connect(url, endpoint.LocalClient{Store: a[i].st})
		if err := tool.Process(url); err != nil {
			return err
		}
		start := time.Now()
		ix, err := extraction.New().Extract(ctx, endpoint.LocalClient{Store: b[i].st}, url, time.Now())
		if err != nil {
			return err
		}
		extractNS += int64(time.Since(start))
		summaryB[url] = schema.Build(ix)
		if err := dbB.Collection(core.CollIndexes).Put(url, ix); err != nil {
			return err
		}
	}
	m["extraction.extract_ms"] = perUnit(extractNS, len(a)) / 1e6
	storeBench(a[0].st, r.pool.datasets[0], m)
	srv := server.New(tool)
	srv.ReadOnly = !r.w.rw

	etags := map[string]string{}
	renders := map[string]int{}
	seq := r.newReplaySeq()
	begin := time.Now()
	for n := 0; n < replayMaxOps && time.Since(begin) < r.cfg.replay; n++ {
		o := seq.next()
		switch {
		case o.v != nil:
			req := httptest.NewRequest(http.MethodGet, o.v.path, nil)
			conditional := o.cond && etags[o.v.ds.url] != ""
			if conditional {
				req.Header.Set("If-None-Match", etags[o.v.ds.url])
			}
			rec := httptest.NewRecorder()
			before := tool.Cache.Stats().Misses
			root := t.root("op.view")
			hi := t.begin("server.handler")
			srv.ServeHTTP(rec, req)
			t.end(hi)
			l.closeOp(root, kView)
			if e := rec.Header().Get("ETag"); e != "" {
				etags[o.v.ds.url] = e
			}
			// rename the handler span by what the cache did with it
			name := "server.hit"
			switch {
			case rec.Code == http.StatusNotModified:
				name = "server.revalidate_304"
			case tool.Cache.Stats().Misses > before:
				name = "server.miss"
			case rec.Code != http.StatusOK:
				return fmt.Errorf("%s: status %d in-process", o.v.path, rec.Code)
			}
			t.spans[hi].Name = name
			l.viewLayers(tool, o.v, renders)
		case o.kind == kFed:
			f, err := tool.Federation(nil, federation.IndexPrune)
			if err != nil {
				return err
			}
			root := t.root("op.fed")
			var rs *sparql.RowSeq
			t.in("federation.open", func() { rs, err = f.Stream(ctx, o.q.text) })
			if err != nil {
				return err
			}
			rows := 0
			mi := t.begin("federation.merge")
			for range rs.All() {
				rows++
			}
			err = rs.Err()
			rs.Close()
			t.end(mi)
			l.closeOp(root, kFed)
			if err != nil {
				return err
			}
			l.fedNS += t.spans[mi].dur()
			l.fedRows += rows
		case o.q != nil:
			// the handler as one call, for the reconciliation ...
			req := httptest.NewRequest(http.MethodGet, strings.TrimPrefix(r.queryURL(o.q, 0, false), r.srv.base), nil)
			rec := httptest.NewRecorder()
			root := t.root("op." + o.kind.String())
			t.in("server.query", func() { srv.ServeHTTP(rec, req) })
			l.closeOp(root, o.kind)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s: status %d in-process", o.q.text, rec.Code)
			}
			// ... and the engine layers under it, as their own (unbooked) op
			root = t.root("layers." + o.kind.String())
			err := l.query(o, spanStore{Queryable: storeA[o.q.ds.url], t: t, name: "store.reader"}, false)
			t.end(root)
			if err != nil {
				return err
			}
		default:
			url := o.u.ds.url
			root := t.root("whole." + o.kind.String())
			var res *core.UpdateResult
			var err error
			// ApplyUpdate reads the pre-update summary through the snapshot
			// cache, which the previous update of this dataset emptied: when
			// no view came between, the update pays for decoding it again.
			// That reload gets its own span, so core.apply_update is the
			// cascade alone and can be compared with the sum of its parts.
			t.in("core.summary", func() { _, err = tool.Summary(url) })
			if err != nil {
				return err
			}
			t.in("core.apply_update", func() { res, err = tool.ApplyUpdate(ctx, url, o.u.text) })
			t.end(root)
			if err != nil {
				return err
			}
			if res.Added != o.u.added || res.Removed != o.u.removed {
				l.ok = false
			}
			root = t.root("op." + o.kind.String())
			err = l.cascade(o, storeB[url], dbB, summaryB)
			l.closeOp(root, o.kind)
			if err != nil {
				return err
			}
		}
	}
	if l.fedRows > 0 {
		m["federation.merge_ns_per_row"] = perUnit(l.fedNS, l.fedRows)
	}
	return nil
}

// cascade replays core.ApplyUpdate's steps one public function at a time
// on state B.
func (l *layers) cascade(o *op, st *store.Store, db *docstore.DB, summaries map[string]*schema.Summary) error {
	t, url := l.t, o.u.ds.url
	d, err := l.apply(o, st)
	if err != nil {
		return err
	}
	var ix extraction.Index
	t.in("docstore.get", func() { err = db.Collection(core.CollIndexes).Get(url, &ix) })
	if err != nil {
		return err
	}
	t.in("extraction.apply_delta", func() { extraction.ApplyDelta(&ix, st, d.Added, d.Removed, time.Now()) })
	var s *schema.Summary
	t.in("schema.build", func() { s = schema.Build(&ix) })
	var cs *cluster.Schema
	t.in("cluster.build", func() { cs, err = cluster.Build(s, cluster.Options{}) })
	if err != nil {
		return err
	}
	var diff *schema.Diff
	t.in("schema.compare", func() { diff = schema.Compare(summaries[url], s) })
	summaries[url] = s
	put := func(coll string, doc any) {
		if err == nil {
			t.in("docstore.put", func() { err = db.Collection(coll).Put(url, doc) })
		}
	}
	if !diff.Unchanged() {
		put(core.CollDiffs, diff)
	}
	put(core.CollIndexes, &ix)
	put(core.CollSummaries, s)
	put(core.CollClusters, cs)
	return err
}

// rendersPerKind bounds how often each layout is rendered directly: the
// figures settle within a few dozen calls and a treemap costs milliseconds.
const rendersPerKind = 40

// viewLayers times the presentation layers a cache miss pays for, called
// directly: the layout model or the rendered SVG of the op's view kind.
func (l *layers) viewLayers(tool *core.HBOLD, v *view, done map[string]int) {
	if done[v.name] >= rendersPerKind {
		return
	}
	url := v.ds.url
	sum, err := tool.Summary(url)
	if err != nil {
		return
	}
	cs, err := tool.ClusterSchema(url)
	if err != nil {
		return
	}
	focus := ""
	if i := strings.Index(v.path, "&focus="); i >= 0 {
		focus = v.ds.classes[0].iri
	}
	kind, isView := strings.CutPrefix(v.name, "view/")
	model, isModel := strings.CutPrefix(v.name, "model/")
	t := l.t
	switch {
	case isView:
		root := t.root("layers.view")
		t.in("viz.render."+kind, func() {
			switch kind {
			case "treemap":
				viz.TreemapView(cs, sum, 1000, 700)
			case "sunburst":
				viz.SunburstView(cs, sum, 800)
			case "circlepack":
				viz.CirclePackView(cs, sum, 800)
			case "bundle":
				viz.BundleView(cs, sum, focus, 900)
			case "cluster-graph":
				viz.ClusterGraphView(cs, 900)
			case "summary-graph":
				viz.SummaryGraphView(sum, nil, 900)
			}
		})
		t.end(root)
	case isModel:
		root := t.root("layers.view")
		t.in("viz.model."+model, func() {
			switch model {
			case "treemap":
				viz.TreemapModelOf(cs, sum, 1000, 700)
			case "sunburst":
				viz.SunburstModelOf(cs, sum, 400)
			case "circlepack":
				viz.CirclePackModelOf(cs, sum, 800)
			}
		})
		t.end(root)
	case v.name == "explore":
		root := t.root("layers.view")
		t.in("core.explore", func() { tool.Explore(url, v.ds.classes[0].iri) })
		t.end(root)
	default:
		return
	}
	done[v.name]++
}
