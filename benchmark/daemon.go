package main

import (
	"bufio"
	"fmt"
	"io"
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

// repoRoot finds the checkout root (the directory holding BENCHMARK.json)
// from the working directory: the root itself under run.sh, benchmark/
// under `go run -C benchmark .`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

// buildDir is where everything the benchmark builds or scribbles goes, so
// nothing is written outside the checkout.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// goEnv points the go tool's caches into the checkout.
func goEnv(root string) []string {
	b := buildDir(root)
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(b, "gocache"),
		"GOPATH="+filepath.Join(b, "gopath"),
		"GOTOOLCHAIN=local")
}

// buildDaemon compiles cmd/aggifyd from the checkout's source into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "aggifyd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aggifyd")
	cmd.Dir = root
	cmd.Env = goEnv(root)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/aggifyd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one aggifyd child process.
type daemon struct {
	cmd      *exec.Cmd
	addr     string // wire protocol listener
	httpAddr string // debug listener ("" unless started with -http)
	started  time.Time
	ready    time.Time // when it logged "listening on"

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
	done chan struct{}
}

// startDaemon execs aggifyd on an ephemeral loopback port with default
// flags plus extra, and returns once it listens. The child dies with the
// harness (Pdeathsig) and is always reaped by stop or kill.
func startDaemon(bin string, withHTTP bool, extra ...string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if withHTTP {
		args = append(args, "-http", "127.0.0.1:0")
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// found carries the two addresses once both have been logged.
	found := make(chan [2]string, 1)
	go func() {
		defer close(d.done)
		var addrs [2]string
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrs[0] = strings.TrimSpace(line[i+len("listening on "):])
			}
			if i := strings.Index(line, "debug http on "); i >= 0 {
				addrs[1] = strings.TrimSpace(line[i+len("debug http on "):])
			}
			if !sent && addrs[0] != "" && (!withHTTP || addrs[1] != "") {
				sent = true
				found <- addrs
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-found:
		d.ready = time.Now()
		d.addr, d.httpAddr = a[0], a[1]
		return d, nil
	case <-d.done:
		cmd.Wait()
		return nil, fmt.Errorf("aggifyd exited before listening:\n%s", d.log())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("aggifyd did not listen within 60s:\n%s", d.log())
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// kill sends SIGKILL (a crash: nothing is flushed or checkpointed) and
// reaps the child.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.cmd.Wait()
}

// stop asks for a graceful drain, falls back to kill, and reaps the child.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		d.cmd.Wait()
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

// peakRSSMiB reads the child's VmHWM (peak resident set) from /proc.
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// scrape reads the daemon's /metrics into name -> value (unlabelled series
// only, which is all the harness uses).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}
