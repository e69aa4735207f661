package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one named traffic mix against one server configuration.
type workload struct {
	name string
	why  string
	// serve runs `hbold serve` (six demo datasets, presentation views,
	// /api/query, /api/update); otherwise `hbold sparqld` over one corpus.
	serve bool
	rw    bool // writers run beside the reads
	disk  bool // sparqld over -data-dir, restarted from disk alone
	// roles are the op mixes the clients deal from: client i takes
	// roles[i%len(roles)]. Three workloads have one role, so every client
	// deals the same mix; the disk workload has a reader and a writer. The
	// traced replay walks the same roles (see replaySeq).
	roles []mix
	// writersStartAtWindow keeps update-only clients idle through the
	// warm-up, so every window starts from the same storage state: the
	// data dir as restarted (six segments, an all but empty memtable).
	// An LSM's position in its flush/compaction cycle is state, like a
	// cache's warmth; starting each window at the same point of the cycle
	// is what makes two runs comparable, and it puts the first flush and
	// the compaction it triggers inside the window instead of wherever
	// the warm-up happened to leave them.
	writersStartAtWindow bool
}

// clientMix is the mix client i deals from.
func (w *workload) clientMix(i int) mix { return w.roles[i%len(w.roles)] }

// sparqlReads is the query mix of both sparqld workloads: the same reads
// over the memory tier and over the disk tier.
var sparqlReads = mix{kPoint: 30, kTyped: 15, kJoin: 22, kGroup: 8, kTopK: 12, kDistinct: 10, kScan: 3}

// The four workloads. Each is built so that one mechanism carries it and
// another workload bypasses that mechanism; BENCHMARK.json repeats the
// one-line reasons, bench/README.md the long ones.
var workloads = []*workload{
	{
		name:  "explore_hot",
		why:   "the paper's path: read-only views of a precomputed schema, all server+snapcache hits; bypasses sparql, store, kv, update",
		serve: true,
		roles: []mix{{kView: 100}},
	},
	{
		name:  "serve_mixed",
		why:   "views beside queries, federated reads and updates: generation bumps invalidate snapcache and run the whole ApplyUpdate cascade",
		serve: true, rw: true,
		roles: []mix{{kView: 70, kPoint: 8, kTyped: 4, kJoin: 2, kGroup: 1, kTopK: 2, kDistinct: 1, kFed: 4, kUpdSmall: 8}},
	},
	{
		name:  "sparql_mem",
		why:   "read-only SPARQL on the memory tier: isolates parse/compile/execute, store and results; bypasses kv, disk, update, snapcache",
		roles: []mix{sparqlReads},
	},
	{
		name: "sparql_disk_rw",
		why:  "the same queries over the disk tier restarted from its data dir, beside small and bulk updates with fsync: kv snapshots, WAL, flush, compaction",
		rw:   true, disk: true,
		roles:                []mix{sparqlReads, {kUpdSmall: 35, kUpdBulk: 65}},
		writersStartAtWindow: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// config is one invocation's settings. The command line sets seed,
// seconds, warmup and trace; the rest are the constants of benchConfig,
// which only the self-tests replace (a small corpus, one set-up, a short
// replay) to stay fast.
type config struct {
	seed      int64
	seconds   time.Duration // measured window
	warmup    time.Duration
	trace     bool
	clients   int           // closed-loop clients; execute raises it to one per role
	instances int           // sparqld corpus size in instances
	setups    int           // how many times set-up is repeated for setup_s
	replay    time.Duration // time budget of the traced in-process replay
	quiet     bool          // self-tests: keep the report and tables off the terminal
}

// benchConfig holds what every benchmark run uses: as many clients as
// the machine has processors, the 20000-instance sparqld corpus (152,708
// triples), three set-ups per run (setup_s is their median) and a six
// second budget for the traced replay.
func benchConfig() config {
	return config{clients: runtime.NumCPU(), instances: 20000, setups: 3, replay: 6 * time.Second}
}

// serveDatasets is the -datasets argument of `hbold serve`: five demo
// endpoints plus the Scholarly LD, 12–24 k triples each.
const serveDatasets = 5

// datasets builds the in-memory mirror of what the server will hold.
func (w *workload) datasets(cfg config) []*dataset {
	if w.serve {
		return serveCorpus(serveDatasets)
	}
	return []*dataset{sparqlCorpus(cfg.instances)}
}

const sparqldReady = "/?query=ASK%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D"

// start brings the workload's server up from nothing and returns it with
// the set-up time: exec to first 200, which covers corpus generation and
// index extraction (serve), the Turtle load (sparqld), or seeding the
// data dir and restarting from it (disk). `go build` is not part of it.
func (w *workload) start(e *env, corpusPath string, n int) (*proc, string, time.Duration, error) {
	switch {
	case w.serve:
		args := []string{"-datasets", fmt.Sprint(serveDatasets)}
		if w.rw {
			args = append(args, "-readonly=false")
		}
		p, d, err := e.spawn("serve", args, "/api/datasets")
		return p, "", d, err
	case !w.disk:
		p, d, err := e.spawn("sparqld", []string{"-quiet", corpusPath}, sparqldReady)
		return p, "", d, err
	default:
		dir := filepath.Join(e.work, fmt.Sprintf("data-%d", n))
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", 0, err
		}
		seed, seedTime, err := e.spawn("sparqld", []string{"-quiet", "-data-dir", dir, corpusPath}, sparqldReady)
		if err != nil {
			return nil, "", 0, err
		}
		seed.kill()
		// restarted from the data dir alone: no corpus file on the command line
		p, restart, err := e.spawn("sparqld", []string{"-quiet", "-data-dir", dir}, sparqldReady)
		return p, dir, seedTime + restart, err
	}
}
