package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// run is one socket-level run of one workload: the real binary on a
// loopback port, driven by closed-loop clients — each sends its next
// request only when the previous reply has been read and verified, like
// a browser waiting for a view or a SPARQL client waiting for rows.
type run struct {
	e    *env
	w    *workload
	cfg  config
	pool *pool

	srv        *proc
	dataDir    string
	corpusPath string    // sparqld: the N-Triples file the server loads
	pristine   string    // disk, traced: a copy of the data dir taken before any write
	setups     []float64 // seconds, one per repeated set-up

	t0, t1 time.Time // measured window
	stop   atomic.Bool
	// storeMu has one lock per dataset of `serve -readonly=false`: an update
	// and a read of the same store are never in flight together; see admit.
	storeMu  map[string]*sync.RWMutex
	viewSums sync.Map // view path + "|" + ETag → body CRC

	clients []*client
	res     *socketResult
}

// socketResult is everything the socket run measured.
type socketResult struct {
	lat        [numKinds]sample // ms per op kind, window only
	firstByte  sample           // ms to response headers, scans
	reads      sample           // ms, every read kind merged
	attempted  int              // warm-up included: a failure there is still a failure
	failed     int
	windowOK   int   // successful ops completed inside the window
	bySecond   []int // the same, per second of the window
	checks     *checks
	rssMiB     float64 // median of VmRSS sampled through the window
	rssSamples int
	peakRSSMiB float64 // VmHWM at the end of the window
	rttFloorUS float64
	bytes      [numKinds]traffic
	admitWait  time.Duration // summed over clients, window only; see admit
	cache      [2]cacheStats
	fedStats   [2]map[string]map[string]float64
	flushes    int // disk: memtable flushes seen in MANIFEST inside the window
	compacts   int
	restartMS  float64
	lostWrites int
}

// traffic is what one op kind moved over the socket inside the window:
// request bodies out (GETs carry none), response bodies in.
type traffic struct {
	Sent     int64 `json:"sent"`
	Received int64 `json:"received"`
}

type cacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Collapsed     int64 `json:"collapsed"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Bytes         int64 `json:"bytes"`
}

// client is one closed-loop caller.
type client struct {
	r      *run
	gen    *generator
	hc     *http.Client
	hasher rowHasher
	checks *checks
	etags  map[string]string // dataset URL → last ETag seen
	passed map[verdictKey]uint32
	views  map[string]uint32 // view path → CRC of the last body that passed
	buf    bytes.Buffer

	lat       [numKinds]sample
	firstByte sample
	bytes     [numKinds]traffic
	received  int           // body bytes of the op's own response (not of a probe after it)
	waited    time.Duration // what admit held the current op back
	admitWait time.Duration // the same, summed over the window
	attempted int
	failed    int
	windowOK  int
	bySecond  []int
	updates   int
	// startAtWindow holds the client back through the warm-up; see
	// workload.writersStartAtWindow.
	startAtWindow bool
}

// transport is shared by the clients: keep-alive connections, one per
// client in steady state.
func newTransport(clients int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        clients * 2,
		MaxIdleConnsPerHost: clients * 2,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
}

// requestTimeout bounds one request. Nothing in the workloads comes near
// it; a server that hangs fails the op instead of hanging the benchmark.
const requestTimeout = 60 * time.Second

func (r *run) queryURL(q *query, format int, fed bool) string {
	esc := url.QueryEscape(q.text)
	switch {
	case !r.w.serve:
		u := r.srv.base + "/?query=" + esc
		if format != 0 {
			u += "&format=" + formats[format]
		}
		return u
	case fed:
		return r.srv.base + "/api/query?sources=all&policy=prune&sparql=" + esc
	default:
		return r.srv.base + "/api/query?dataset=" + url.QueryEscape(q.ds.url) + "&sparql=" + esc
	}
}

func (r *run) updateURL(ds *dataset) string {
	if r.w.serve {
		return r.srv.base + "/api/update?dataset=" + url.QueryEscape(ds.url)
	}
	return r.srv.base + "/"
}

// roundTrip sends one request and reads the whole body into c.buf. It
// returns the time to the response headers and to the last body byte.
func (c *client) roundTrip(req *http.Request) (resp *http.Response, firstByte, total time.Duration, err error) {
	start := time.Now()
	resp, err = c.hc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	firstByte = time.Since(start)
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	total = time.Since(start)
	resp.Body.Close()
	c.received = c.buf.Len()
	return resp, firstByte, total, err
}

// admit is the one place the harness holds a client back. On
// `hbold serve -readonly=false` each dataset is a memory-tier store whose
// readers share the store's maps with its writers (ROADMAP item 3): a
// query in flight while an update lands on the same store dies with the
// Go runtime's "concurrent map read and map write", which takes the whole
// server down — three of five 15 s runs on this box with free-running
// clients. The driver wants workloads on which no operation fails, and a
// dead server fails every op after it, so this workload cannot be run
// free. What is withheld is kept as narrow as the defect: one lock per
// dataset, taken exclusively by an update of that dataset and shared by a
// query of it (a federated read queries every dataset and shares them
// all). Reads and writes of different datasets, two updates of different
// datasets, and every view run together as they come.
//
// The wait happens before the clock starts, so it is in no latency, but it
// is time a client did not spend sending: it lowers ops_per_s, and the
// traced run reports its share of the clients' time as
// bench.admit_wait_ratio. Once the memory tier isolates its readers this
// lock goes away and serve_mixed is re-based.
func (c *client) admit(o *op) (release func()) {
	r := c.r
	c.waited = 0
	if r.storeMu == nil || o.v != nil {
		return func() {}
	}
	start := time.Now()
	defer func() { c.waited = time.Since(start) }()
	switch {
	case o.u != nil:
		mu := r.storeMu[o.u.ds.url]
		mu.Lock()
		return mu.Unlock
	case o.kind == kFed:
		// always in pool order; an update holds one lock and waits for no
		// other, so the order cannot deadlock
		for _, d := range r.pool.datasets {
			r.storeMu[d.url].RLock()
		}
		return func() {
			for _, d := range r.pool.datasets {
				r.storeMu[d.url].RUnlock()
			}
		}
	default:
		mu := r.storeMu[o.q.ds.url]
		mu.RLock()
		return mu.RUnlock
	}
}

// do executes one op and verifies the reply. ok is false for a transport
// error, a status other than 200 (or a wanted 304), or an oracle mismatch.
func (c *client) do(o *op) (firstByte, total time.Duration, ok bool) {
	r := c.r
	defer c.admit(o)()
	switch {
	case o.v != nil:
		req, _ := http.NewRequest(http.MethodGet, r.srv.base+o.v.path, nil)
		etag := c.etags[o.v.ds.url]
		conditional := o.cond && etag != ""
		if conditional {
			req.Header.Set("If-None-Match", etag)
		}
		resp, fb, total, err := c.roundTrip(req)
		if err != nil {
			c.checks.note(chkViewJSON, err)
			return fb, total, false
		}
		return fb, total, c.verifyView(o.v, resp, conditional)
	case o.q != nil:
		framing := formats[o.format]
		if r.w.serve {
			framing = "ndjson"
		}
		req, _ := http.NewRequest(http.MethodGet, r.queryURL(o.q, o.format, o.kind == kFed), nil)
		resp, fb, total, err := c.roundTrip(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", o.kind, resp.StatusCode, firstLine(c.buf.Bytes()))
		}
		if err != nil {
			c.checks.note(chkRows, err)
			return fb, total, false
		}
		return fb, total, c.checks.verifyQuery(&c.hasher, o.q, framing, c.buf.Bytes(), r.w.rw, c.passed)
	default:
		req, _ := http.NewRequest(http.MethodPost, r.updateURL(o.u.ds), strings.NewReader(o.u.text))
		req.Header.Set("Content-Type", "application/sparql-update")
		resp, fb, total, err := c.roundTrip(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", o.kind, resp.StatusCode, firstLine(c.buf.Bytes()))
		}
		var ack struct{ Added, Removed int }
		if err == nil {
			err = json.Unmarshal(c.buf.Bytes(), &ack)
		}
		if err == nil && (ack.Added != o.u.added || ack.Removed != o.u.removed) {
			err = fmt.Errorf("%s: acknowledged +%d −%d, batch is +%d −%d", o.kind, ack.Added, ack.Removed, o.u.added, o.u.removed)
		}
		c.checks.note(chkDelta, err)
		if err != nil {
			return fb, total, false
		}
		// every fourth update is followed by a read-your-write probe: the
		// writer reads back one of the subjects it just wrote (or deleted).
		// The probe is not timed and not an op; its failure fails the update.
		c.updates++
		if c.updates%4 == 0 {
			received := c.received
			perr := c.probe(o.u.ds, o.u.probeSubject, o.u.probeRows)
			c.received = received
			c.checks.note(chkRYW, perr)
			return fb, total, perr == nil
		}
		return fb, total, true
	}
}

// probe reads back every triple of one reserved subject.
func (c *client) probe(ds *dataset, subject string, want int) error {
	q := &query{kind: kPoint, ds: ds, text: fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", iri(subject))}
	req, _ := http.NewRequest(http.MethodGet, c.r.queryURL(q, 0, false), nil)
	resp, _, _, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe: status %d", resp.StatusCode)
	}
	framing := "json"
	if c.r.w.serve {
		framing = "ndjson"
	}
	if err := c.hasher.decode(framing, c.buf.Bytes()); err != nil {
		return err
	}
	if c.hasher.rows != want {
		return fmt.Errorf("probe: %s has %d triples after the acknowledged update, want %d", subject, c.hasher.rows, want)
	}
	return nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// verifyView checks a presentation response: status, well-formedness,
// and that the bytes served under one (URL, ETag) never change.
func (c *client) verifyView(v *view, resp *http.Response, conditional bool) bool {
	body := c.buf.Bytes()
	if conditional {
		// read-only servers must revalidate; under writers the generation
		// may have moved on, and a fresh 200 is then the right answer
		var err error
		switch {
		case resp.StatusCode == http.StatusNotModified:
			if len(body) != 0 {
				err = errors.New("304 with a body")
			}
			c.checks.note(chk304, err)
			return err == nil
		case !c.r.w.rw:
			err = fmt.Errorf("%s: status %d to a matching If-None-Match", v.path, resp.StatusCode)
			c.checks.note(chk304, err)
			return false
		}
	}
	if resp.StatusCode != http.StatusOK {
		c.checks.note(chkViewJSON, fmt.Errorf("%s: status %d: %s", v.path, resp.StatusCode, firstLine(body)))
		return false
	}
	etag := resp.Header.Get("ETag")
	if v.etagged {
		if etag == "" {
			c.checks.note(chkViewBytes, fmt.Errorf("%s: no ETag", v.path))
			return false
		}
		c.etags[v.ds.url] = etag
	}
	// Well-formedness is checked on bytes not seen before; a body whose
	// CRC matches the last one that passed for this path is the same body.
	crc := crc32.Checksum(body, castagnoli)
	category := chkViewJSON
	if v.svg {
		category = chkViewSVG
	}
	var err error
	if prev, seen := c.views[v.path]; !seen || prev != crc {
		trimmed := bytes.TrimSpace(body)
		switch {
		case v.svg && (!bytes.HasPrefix(trimmed, []byte("<svg")) || !bytes.HasSuffix(trimmed, []byte("</svg>"))):
			err = fmt.Errorf("%s: not an <svg> document", v.path)
		case !v.svg && !json.Valid(body):
			err = fmt.Errorf("%s: malformed JSON", v.path)
		}
		if err == nil {
			c.views[v.path] = crc
		}
	}
	c.checks.note(category, err)
	ok := err == nil
	// Byte stability is a read-only property: under writers the server
	// documents that a body computed while an update lands may already
	// reflect the next generation under the previous ETag (never an older
	// one), and the unversioned dataset list changes with every update.
	if !c.r.w.rw {
		var err error
		if prev, seen := c.r.viewSums.LoadOrStore(v.path+"|"+etag, crc); seen && prev.(uint32) != crc {
			err = fmt.Errorf("%s: two different bodies under ETag %s", v.path, etag)
		}
		c.checks.note(chkViewBytes, err)
		ok = ok && err == nil
	}
	return ok
}

// loop is the closed loop: generate, send, read, verify, record, repeat
// until the coordinator calls stop.
func (c *client) loop() {
	r := c.r
	if c.startAtWindow {
		time.Sleep(time.Until(r.t0))
	}
	for !r.stop.Load() {
		o := c.gen.next()
		fb, total, ok := c.do(o)
		done := time.Now()
		c.attempted++
		if !ok {
			c.failed++
		}
		if done.Before(r.t0) || !done.Before(r.t1) {
			continue
		}
		if !ok {
			continue // a failed op has no latency worth keeping; it shows in error accounting
		}
		c.windowOK++
		if s := int(done.Sub(r.t0) / time.Second); s < len(c.bySecond) {
			c.bySecond[s]++
		}
		c.admitWait += c.waited
		if o.u != nil {
			c.bytes[o.kind].Sent += int64(len(o.u.text))
		}
		c.bytes[o.kind].Received += int64(c.received)
		ms := float64(total) / float64(time.Millisecond)
		c.lat[o.kind].add(ms)
		if o.kind == kScan {
			c.firstByte.add(float64(fb) / float64(time.Millisecond))
		}
	}
}

// setUp runs the workload's set-up cfg.setups times, keeping the last
// server for the run. setup_s is the median over the repeats.
func (r *run) setUp(corpusPath string) error {
	r.corpusPath = corpusPath
	for i := 0; i < r.cfg.setups; i++ {
		if r.srv != nil {
			r.srv.kill()
		}
		srv, dir, d, err := r.w.start(r.e, corpusPath, i)
		if err != nil {
			return err
		}
		r.srv, r.dataDir = srv, dir
		r.setups = append(r.setups, d.Seconds())
	}
	if r.w.disk && r.cfg.trace {
		// the server is idle and has just been restarted: its files are the
		// seeded state, and a file copy of them is consistent
		r.pristine = filepath.Join(r.e.work, "pristine")
		return copyDir(r.dataDir, r.pristine)
	}
	return nil
}

// rttFloor times the cheapest well-formed exchange the server offers, to
// separate "HTTP and loopback" from "the layers" in the reconciliation:
// /api/cache on serve; on sparqld a GET without a query, which the
// protocol handler refuses with 400 before touching the store (every
// valid query takes a store snapshot, which on the disk tier is the very
// layer cost the floor must not contain).
func (r *run) rttFloor(hc *http.Client) float64 {
	target := r.srv.base + "/"
	if r.w.serve {
		target = r.srv.base + "/api/cache"
	}
	var s sample
	for i := 0; i < 300; i++ {
		start := time.Now()
		resp, err := hc.Get(target)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.add(float64(time.Since(start)) / float64(time.Microsecond))
	}
	return median(s.vals)
}

func (r *run) getJSON(hc *http.Client, path string, out any) error {
	resp, err := hc.Get(r.srv.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// counters reads the server's own counters at a window edge.
func (r *run) counters(hc *http.Client, edge int) error {
	if !r.w.serve {
		return nil
	}
	if err := r.getJSON(hc, "/api/cache", &r.res.cache[edge]); err != nil {
		return fmt.Errorf("/api/cache: %w", err)
	}
	var fs struct {
		Sources map[string]map[string]float64 `json:"sources"`
	}
	if err := r.getJSON(hc, "/api/federation/stats", &fs); err != nil {
		return fmt.Errorf("/api/federation/stats: %w", err)
	}
	r.res.fedStats[edge] = fs.Sources
	return nil
}

type kvManifest struct {
	Segments []string `json:"segments"`
	NextSeq  uint64   `json:"next_seq"`
}

func readManifest(dir string) (kvManifest, bool) {
	var m kvManifest
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil || json.Unmarshal(raw, &m) != nil {
		return m, false
	}
	return m, true
}

// watch samples, every 20 ms through the window, what the server shows
// of itself without being asked: its resident set (/proc), and on the
// disk tier the data dir's MANIFEST, where a new segment at the tail is
// a memtable flush and a new segment at the head with older ones gone is
// a compaction. The server has no flag or endpoint for either; these
// files are its public record.
func (r *run) watch(done <-chan struct{}) {
	prev, _ := readManifest(r.dataDir)
	var rss []float64
	defer func() { r.res.rssMiB, r.res.rssSamples = median(rss), len(rss) }()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		if now := time.Now(); n%5 == 0 && !now.Before(r.t0) && now.Before(r.t1) {
			if v, err := r.srv.statusMiB("VmRSS:"); err == nil {
				rss = append(rss, v)
			}
		}
		if !r.w.disk {
			continue
		}
		cur, ok := readManifest(r.dataDir)
		if !ok || cur.NextSeq == prev.NextSeq && len(cur.Segments) == len(prev.Segments) {
			continue
		}
		was := map[string]bool{}
		for _, s := range prev.Segments {
			was[s] = true
		}
		now := map[string]bool{}
		for _, s := range cur.Segments {
			now[s] = true
		}
		vanished := false
		for _, s := range prev.Segments {
			vanished = vanished || !now[s]
		}
		now_ := time.Now()
		inWindow := !now_.Before(r.t0) && now_.Before(r.t1)
		for i, s := range cur.Segments {
			if was[s] || !inWindow {
				continue
			}
			if i == 0 && vanished {
				r.res.compacts++
			} else {
				r.res.flushes++
			}
		}
		prev = cur
	}
}

// socket runs warm-up and the measured window and collects the results.
func (r *run) socket() error {
	cfg := r.cfg
	r.res = &socketResult{checks: newChecks()}
	tr := newTransport(cfg.clients + 1)
	defer tr.CloseIdleConnections()
	side := &http.Client{Transport: tr, Timeout: requestTimeout}
	r.res.rttFloorUS = r.rttFloor(side)
	if r.w.serve && r.w.rw {
		r.storeMu = map[string]*sync.RWMutex{}
		for _, d := range r.pool.datasets {
			r.storeMu[d.url] = &sync.RWMutex{}
		}
	}

	for i := 0; i < cfg.clients; i++ {
		r.clients = append(r.clients, &client{
			r:             r,
			gen:           newGenerator(r.pool, r.w.clientMix(i), cfg.seed, i),
			startAtWindow: r.w.writersStartAtWindow && !r.w.clientMix(i).reads(),
			hc:            &http.Client{Transport: tr, Timeout: requestTimeout},
			checks:        newChecks(),
			bySecond:      make([]int, cfg.seconds/time.Second),
			etags:         map[string]string{},
			passed:        map[verdictKey]uint32{},
			views:         map[string]uint32{},
		})
	}
	start := time.Now()
	r.t0 = start.Add(cfg.warmup)
	r.t1 = r.t0.Add(cfg.seconds)
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop()
		}(c)
	}
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		r.watch(watchDone)
	}()
	time.Sleep(time.Until(r.t0))
	cerr := r.counters(side, 0)
	time.Sleep(time.Until(r.t1))
	if err := r.counters(side, 1); cerr == nil {
		cerr = err
	}
	r.stop.Store(true)
	wg.Wait()
	close(watchDone)
	watchWG.Wait()
	// a dead server first: it is the cause of whatever else went wrong
	select {
	case <-r.srv.done:
		return fmt.Errorf("the server exited during the run; its log ends: %s", r.srv.tail())
	default:
	}
	if cerr != nil {
		return cerr
	}

	res := r.res
	res.bySecond = make([]int, cfg.seconds/time.Second)
	for _, c := range r.clients {
		for s, n := range c.bySecond {
			res.bySecond[s] += n
		}
		for k := range c.lat {
			res.lat[k].merge(&c.lat[k])
			if opKind(k).isRead() {
				res.reads.merge(&c.lat[k])
			}
			res.bytes[k].Sent += c.bytes[k].Sent
			res.bytes[k].Received += c.bytes[k].Received
		}
		res.admitWait += c.admitWait
		res.firstByte.merge(&c.firstByte)
		res.attempted += c.attempted
		res.failed += c.failed
		res.windowOK += c.windowOK
		res.checks.merge(c.checks)
	}
	var err error
	res.peakRSSMiB, err = r.srv.statusMiB("VmHWM:")
	return err
}
