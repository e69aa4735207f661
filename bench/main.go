// Command bench is the repository's one benchmark: it builds the real
// hbold binary, spawns `hbold serve` or `hbold sparqld` on a loopback
// port, drives it over keep-alive HTTP with closed-loop clients from a
// seeded op sequence, verifies every response against values computed
// in-process, and reports the metrics BENCHMARK.json names. With
// -trace 1 it additionally replays the same op sequence in-process
// through each layer's public functions and reports per-layer costs.
//
//	go run ./bench -workload sparql_mem -seed 1 -seconds 15 -trace 0
//
// See bench/README.md for the workload and metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	cfg := benchConfig()
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "op-sequence seed (the corpus seed is fixed)")
	seconds := flag.Int("seconds", 15, "measured window in seconds")
	flag.DurationVar(&cfg.warmup, "warmup", 3*time.Second, "warm-up before the window, same mix")
	trace := flag.Int("trace", 0, "1 = also replay the op sequence in-process and report per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds) * time.Second
	cfg.trace = *trace != 0
	w := workloadByName(*name)
	if w == nil || cfg.seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload (one of %s), -seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// every exit path — success, failure, SIGINT — goes through e.close, so
	// no server process and no work directory outlives the invocation
	sig := make(chan os.Signal, 1)
	var interrupted atomic.Bool
	// SIGPIPE too: a reader that went away must not turn the last write to
	// stdout into an exit that skips the cleanup
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		s := <-sig
		interrupted.Store(true)
		fmt.Fprintf(os.Stderr, "bench: %s — stopping servers and removing %s\n", s, e.work)
		e.close()
		os.Exit(130)
	}()
	out, err := execute(e, w, cfg)
	if interrupted.Load() {
		select {} // the signal path owns the exit; a run it broke is not a result
	}
	e.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(out.result)
	fmt.Println(string(line))
	if !out.result.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// result is the contract's last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the long form written to bench/out/<workload>.report.json and
// printed before the last line.
type report struct {
	Workload    string             `json:"workload"`
	Why         string             `json:"why"`
	Environment map[string]any     `json:"environment"`
	Samples     map[string]int     `json:"samples"`
	Traffic     map[string]traffic `json:"body_bytes_in_window"`
	BySecond    []int              `json:"ops_by_second"`
	Checks      map[string][2]int  `json:"checks_ran_failed"`
	CheckErrors map[string]string  `json:"first_check_errors,omitempty"`
	Missing     []string           `json:"check_categories_never_executed,omitempty"`
	Notes       []string           `json:"notes"`
	EndToEnd    []reported         `json:"end_to_end"`
	PerLayer    []reported         `json:"per_layer,omitempty"`
	Residuals   []string           `json:"unexplained_residuals,omitempty"`
	LayerTable  []layerRow         `json:"layer_table,omitempty"`
}

// reported is one metric in the long report. Value is null when the
// ten-beyond rule withheld a percentile; Withheld then says why.
type reported struct {
	Name     string   `json:"name"`
	Value    *float64 `json:"value"`
	Withheld string   `json:"withheld,omitempty"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Bound    float64  `json:"bound,omitempty"`
	N        int      `json:"samples,omitempty"`
}

// report builds m's entry: the value, or null with the reason it was withheld.
func (m metricDef) report(v float64, withheld string, n int) reported {
	r := reported{Name: m.name, Withheld: withheld, Unit: m.unit, Better: m.better, Bound: m.bound, N: n}
	if withheld == "" {
		r.Value = &v
	}
	return r
}

type output struct {
	result result
	report report
}

// wantChecks lists the verification categories a workload must exercise.
func (w *workload) wantChecks() []string {
	var cs []string
	if w.serve {
		cs = append(cs, chkViewJSON, chkViewSVG, chk304)
		if !w.rw {
			cs = append(cs, chkViewBytes)
		}
	}
	if !w.serve || w.rw {
		cs = append(cs, chkRows, chkSum)
	}
	if !w.serve {
		cs = append(cs, chkFormatCSV, chkFormatTSV, chkFormatXML)
	}
	if w.rw {
		cs = append(cs, chkDelta, chkRYW)
	}
	if w.disk {
		cs = append(cs, chkDurable)
	}
	return cs
}

func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// execute runs one workload end to end.
func execute(e *env, w *workload, cfg config) (*output, error) {
	if cfg.clients < len(w.roles) {
		cfg.clients = len(w.roles) // a role without a client would go unmeasured
	}
	if err := e.build(); err != nil {
		return nil, err
	}
	datasets := w.datasets(cfg)
	pool := buildPool(datasets, w.serve)
	if err := pool.expectAll(); err != nil {
		return nil, err
	}
	corpusPath := ""
	if !w.serve {
		var err error
		if corpusPath, err = writeNTriples(datasets[0], e.work); err != nil {
			return nil, err
		}
	}
	r := &run{e: e, w: w, cfg: cfg, pool: pool}
	if err := r.setUp(corpusPath); err != nil {
		return nil, err
	}
	if err := r.socket(); err != nil {
		return nil, err
	}
	if w.disk {
		if err := r.durability(); err != nil {
			return nil, err
		}
	}
	r.srv.kill()

	res := r.res
	out := &output{}
	rep := &out.report
	rep.Workload, rep.Why = w.name, w.why
	rep.Environment = map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit(e.root), "seed": cfg.seed, "corpus_seed": corpusSeed,
		"seconds": cfg.seconds.Seconds(), "warmup_seconds": cfg.warmup.Seconds(),
		"clients": cfg.clients, "loop": "closed", "setups": cfg.setups,
		"sparqld_corpus_instances": cfg.instances, "replay_seconds": cfg.replay.Seconds(),
		"fsync": "on (CLI default: one fsynced WAL record per update request)",
	}
	rep.Notes = []string{
		"latencies are this sandbox's loopback and filesystem, not a network's or a storage device's",
		"no number here is compared against another commit; this benchmark claims no gain",
	}
	if w.disk {
		rep.Notes = append(rep.Notes,
			"durability check: SIGKILL leaves the OS page cache intact, so this is process-crash durability, not power-loss durability",
			fmt.Sprintf("restart from the data dir alone: %.1f ms; lost writes: %d", res.restartMS, res.lostWrites),
			fmt.Sprintf("inside the window the storage engine flushed its memtable %d times and compacted %d times (from MANIFEST.json)", res.flushes, res.compacts))
	}
	rep.Samples = map[string]int{"reads": res.reads.n()}
	rep.Traffic = map[string]traffic{}
	rep.BySecond = res.bySecond
	for k := opKind(0); k < numKinds; k++ {
		if n := res.lat[k].n(); n > 0 {
			rep.Samples[k.String()] = n
			rep.Traffic[k.String()] = res.bytes[k]
		}
	}
	rep.Checks = map[string][2]int{}
	for c, n := range res.checks.ran {
		rep.Checks[c] = [2]int{n, res.checks.failed[c]}
	}
	rep.CheckErrors = res.checks.firstErr
	for _, c := range w.wantChecks() {
		if res.checks.ran[c] == 0 {
			rep.Missing = append(rep.Missing, c)
		}
	}
	sort.Strings(rep.Missing)

	var moved int64
	for _, b := range res.bytes {
		moved += b.Sent + b.Received
	}
	e2e := map[string]float64{
		"setup_s":   median(r.setups),
		"ops_per_s": float64(res.windowOK) / cfg.seconds.Seconds(),
		"mb_per_s":  float64(moved) / 1e6 / cfg.seconds.Seconds(),
		"rss_mb":    res.rssMiB,
	}
	withheld := map[string]string{}
	if v, ok := res.reads.pct(50); ok {
		e2e["read_p50_ms"] = v
	} else {
		withheld["read_p50_ms"] = withheldWhy(&res.reads, 50)
	}
	samples := map[string]int{"setup_s": len(r.setups), "ops_per_s": res.windowOK, "mb_per_s": res.windowOK, "read_p50_ms": res.reads.n(), "rss_mb": res.rssSamples}
	for _, m := range endToEnd {
		rep.EndToEnd = append(rep.EndToEnd, m.report(e2e[m.name], withheld[m.name], samples[m.name]))
	}
	out.result = result{
		Correct:   res.failed == 0 && res.lostWrites == 0 && len(rep.Missing) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]value{},
	}
	// The result line carries a number under every name, as the driver's
	// contract wants; there 0 stands for "no value on this run" (a layer the
	// workload bypasses, a withheld percentile). The long report says null.
	if cfg.trace {
		l, err := r.traced(rep)
		if err != nil {
			return nil, err
		}
		// the replay's answers are checked against the same oracle as the
		// socket run's: a disagreement is a wrong output, not a note
		out.result.Correct = out.result.Correct && l.ok
		for _, m := range perLayer() {
			out.result.Metrics[m.name] = value{Value: l.m[m.name], Unit: m.unit}
			rep.PerLayer = append(rep.PerLayer, m.report(l.m[m.name], l.withheld[m.name], 0))
		}
	} else {
		for _, m := range endToEnd {
			out.result.Metrics[m.name] = value{Value: e2e[m.name], Unit: m.unit}
		}
	}
	for k := opKind(0); k < numKinds && !cfg.quiet; k++ {
		if s := &res.lat[k]; s.n() > 0 {
			fmt.Fprintf(os.Stderr, "%-14s n=%-6d mean=%8.3f ms  p50=%8s  p95=%8s  p99=%8s\n", k, s.n(), s.mean(), s.show(50), s.show(95), s.show(99))
		}
	}
	raw, _ := json.MarshalIndent(rep, "", "  ")
	if err := os.WriteFile(filepath.Join(e.out, w.name+".report.json"), raw, 0o644); err != nil {
		return nil, err
	}
	if !cfg.quiet {
		fmt.Println(string(raw))
	}
	return out, nil
}
