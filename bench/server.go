package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env owns everything the harness leaves on the machine: one work
// directory under bench/out and the child processes. close removes both,
// and main routes every exit path (success, failure, SIGINT) through it.
type env struct {
	root string // module root (where go.mod lives)
	out  string // bench/out: reports and traces, kept
	work string // bench/out/work-<pid>: binaries, corpora, data dirs, removed

	mu      sync.Mutex
	closed  bool
	procs   map[*proc]struct{}
	spawned []int  // every pid ever started, for the leak self-tests
	bin     string // built hbold binary
}

// moduleRoot walks up from the working directory to the directory holding
// this module's go.mod, so the harness runs the same from the checkout
// root (go run ./bench) and from bench/ (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module repro") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: go.mod of module repro not found above the working directory")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, out: filepath.Join(root, "bench", "out"), procs: map[*proc]struct{}{}}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	// MkdirTemp keeps concurrent invocations (the self-tests run beside a
	// benchmark) out of each other's directories
	e.work, err = os.MkdirTemp(e.out, "work-")
	if err != nil {
		return nil, err
	}
	return e, nil
}

// close kills every child still running, waits for it, and removes the
// work directory. Safe to call more than once.
func (e *env) close() {
	e.mu.Lock()
	e.closed = true
	procs := make([]*proc, 0, len(e.procs))
	for p := range e.procs {
		procs = append(procs, p)
	}
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	// On the signal path the main goroutine may still be writing a file
	// here (a corpus, a copy of a data dir) when the first pass runs.
	for try := 0; try < 5; try++ {
		if os.RemoveAll(e.work) == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// build compiles the real program once per invocation. The go tool's own
// cache makes the second and later invocations a staleness check.
func (e *env) build() error {
	e.bin = filepath.Join(e.work, "hbold")
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/hbold")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build ./cmd/hbold: %v\n%s", err, out)
	}
	return nil
}

// proc is one spawned server.
type proc struct {
	e    *env
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	log  *os.File
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the server binds it, so spawn retries on a lost race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts `hbold <args> -addr 127.0.0.1:<free port>` and polls
// readyPath until it answers 200, returning the time from exec to that
// first 200. A server that exits before becoming ready (the port was
// taken between pick and bind) is retried on a fresh port.
func (e *env) spawn(sub string, args []string, readyPath string) (*proc, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		full := append([]string{sub, "-addr", addr}, args...)
		cmd := exec.Command(e.bin, full...)
		cmd.Dir = e.work
		// should the harness itself be killed outright, the kernel takes
		// the server down with it
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		// Log file and process are created under the lock: close (the
		// signal path) either finds this process in the table and kills it,
		// or has already run, and then nothing new appears in the work
		// directory it is removing.
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return nil, 0, errors.New("bench: shutting down")
		}
		logf, err := os.CreateTemp(e.work, "server-*.log")
		if err != nil {
			e.mu.Unlock()
			return nil, 0, err
		}
		cmd.Stdout, cmd.Stderr = logf, logf
		p := &proc{e: e, cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			e.mu.Unlock()
			logf.Close()
			return nil, 0, err
		}
		e.procs[p] = struct{}{}
		e.spawned = append(e.spawned, cmd.Process.Pid)
		e.mu.Unlock()
		go func() {
			cmd.Wait()
			close(p.done)
		}()
		ready, err := p.waitReady(readyPath, start)
		if err == nil {
			return p, ready, nil
		}
		lastErr = fmt.Errorf("%v; server log: %s", err, p.tail())
		p.kill()
	}
	return nil, 0, fmt.Errorf("bench: server never became ready: %w", lastErr)
}

// readyClient is separate from the measuring client so readiness polls
// (which mostly fail with connection refused) leave no state behind.
var readyClient = &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func (p *proc) waitReady(path string, start time.Time) (time.Duration, error) {
	deadline := start.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return 0, errors.New("server exited before becoming ready")
		default:
		}
		resp, err := readyClient.Get(p.base + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, errors.New("timed out waiting for the first 200")
}

// tail returns what the server's log says about its death: the Go
// runtime's "fatal error:"/"panic:" line when there is one (a goroutine
// dump runs to megabytes; its first line is the diagnosis), else the last
// few lines.
func (p *proc) tail() string {
	raw, _ := os.ReadFile(p.log.Name())
	for _, marker := range []string{"fatal error:", "panic:"} {
		if i := strings.Index(string(raw), marker); i >= 0 {
			raw = raw[i:]
			if len(raw) > 1200 {
				raw = raw[:1200]
			}
			return strings.TrimSpace(string(raw))
		}
	}
	if len(raw) > 600 {
		raw = raw[len(raw)-600:]
	}
	return strings.TrimSpace(string(raw))
}

// kill delivers SIGKILL and waits for the process to be reaped. The
// servers have no shutdown path of their own (serve and sparqld run
// until killed), and the disk workload's durability check depends on the
// kill being abrupt.
func (p *proc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
	p.log.Close()
	p.e.mu.Lock()
	delete(p.e.procs, p)
	p.e.mu.Unlock()
}

// statusMiB reads one kB field ("VmRSS:", "VmHWM:") of the server's
// /proc status.
func (p *proc) statusMiB(field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			if f := strings.Fields(rest); len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("bench: %s not found in /proc status", field)
}
