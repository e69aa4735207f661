package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// gone reports whether no process has this pid any more.
func gone(pid int) bool {
	return errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}

func assertClean(t *testing.T, e *env) {
	t.Helper()
	if _, err := os.Stat(e.work); !os.IsNotExist(err) {
		t.Errorf("work directory %s was left behind", e.work)
	}
	for _, pid := range e.spawned {
		if !gone(pid) {
			t.Errorf("server process %d was left behind", pid)
		}
	}
}

// One second of every workload against the real binary, traced run
// included: every op verified, nothing failed, nothing left behind.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real binary")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e, err := newEnv()
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			out, err := execute(e, w, config{
				seed: 1, seconds: time.Second, warmup: 100 * time.Millisecond, clients: 2,
				instances: testInstances, setups: 1, trace: true, replay: 200 * time.Millisecond, quiet: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.result.Failed != 0 || out.result.Attempted == 0 {
				t.Errorf("%d of %d ops failed: %v", out.result.Failed, out.result.Attempted, out.report.CheckErrors)
			}
			// a one-second window may not reach every check category (a disk
			// scan every 50th op at 30 ops/s); it must not reach a failing one
			for c, n := range out.report.Checks {
				if n[1] != 0 {
					t.Errorf("check %s failed %d of %d times: %s", c, n[1], n[0], out.report.CheckErrors[c])
				}
			}
			for _, m := range perLayer() {
				if _, ok := out.result.Metrics[m.name]; !ok {
					t.Errorf("traced run did not report %s", m.name)
				}
			}
			if len(out.report.EndToEnd) != len(endToEnd) {
				t.Errorf("report has %d end-to-end metrics, want %d", len(out.report.EndToEnd), len(endToEnd))
			}
			for _, m := range out.report.EndToEnd {
				// a one-second window on a slow machine may hold too few reads
				// for a median (ten beyond it on either side); the report then
				// says so instead of giving a number
				if m.Value == nil && m.Withheld != "" && m.N < 2*minBeyond+1 {
					continue
				}
				if m.Value == nil || *m.Value <= 0 {
					t.Errorf("%s = %v (%d samples), want a positive value", m.Name, m.Value, m.N)
				}
			}
			// with every category reached and no op failed, only a lost write
			// or a traced replay that disagrees with the oracle is left
			if len(out.report.Missing) == 0 && !out.result.Correct {
				t.Errorf("the run is not correct: %v", out.report.Notes)
			}
			if w.disk && out.report.Checks[chkDurable][0] == 0 {
				t.Error("the durability restart check never ran")
			}
			e.close()
			assertClean(t, e)
		})
	}
}

// A server that never becomes ready is an error, not a hang or a leak.
func TestFailedSpawnLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real binary")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.spawn("no-such-mode", nil, "/"); err == nil {
		t.Fatal("spawning an unknown hbold mode succeeded")
	}
	e.close()
	assertClean(t, e)
}

func workDirs(t *testing.T, out string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "work-") {
			set[e.Name()] = true
		}
	}
	return set
}

// children lists the processes whose parent is pid.
func children(pid int) []int {
	var out []int
	ents, _ := os.ReadDir("/proc")
	for _, e := range ents {
		cpid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// pid (comm) state ppid ...; comm may hold spaces, so cut at the last ')'
		rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
		f := strings.Fields(rest)
		if len(f) >= 2 && f[1] == strconv.Itoa(pid) {
			out = append(out, cpid)
		}
	}
	return out
}

// SIGINT in the middle of a run stops the server and removes the work
// directory before the harness exits.
func TestSIGINTLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the harness binary")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "bench")
	build := exec.Command("go", "build", "-o", bin, "./bench")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./bench: %v\n%s", err, out)
	}
	outDir := filepath.Join(root, "bench", "out")
	os.MkdirAll(outDir, 0o755)
	before := workDirs(t, outDir)
	cmd := exec.Command(bin, "-workload", "explore_hot", "-seconds", "60")
	cmd.Dir = root
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	// wait until the harness has a server child up and is inside its run
	var servers []int
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		servers = servers[:0]
		for _, c := range children(cmd.Process.Pid) {
			if exe, err := os.Readlink(filepath.Join("/proc", strconv.Itoa(c), "exe")); err == nil && strings.HasSuffix(exe, "/hbold") {
				servers = append(servers, c)
			}
		}
		if len(servers) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(servers) == 0 {
		cmd.Process.Kill()
		t.Fatal("the harness never started a server")
	}
	time.Sleep(300 * time.Millisecond)
	cmd.Process.Signal(os.Interrupt)
	select {
	case err := <-exited:
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 130 {
			t.Errorf("harness exited with %v after SIGINT, want exit code 130", err)
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("harness did not exit within 15 s of SIGINT")
	}
	for _, pid := range servers {
		if !gone(pid) {
			t.Errorf("server process %d outlived the interrupted harness", pid)
		}
	}
	for name := range workDirs(t, outDir) {
		if !before[name] {
			t.Errorf("work directory %s outlived the interrupted harness", name)
		}
	}
}
