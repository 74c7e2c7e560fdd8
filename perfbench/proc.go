package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
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

// daemon is one simjoind process the benchmark booted. Its stderr — one
// JSON access-log line per request — goes to a file in the run
// directory, so an undrained pipe can never stall the server.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  string
	done chan struct{}
}

// fleet tracks every daemon of a run so each exit path can stop them.
type fleet struct {
	mu      sync.Mutex
	bin     string
	dir     string
	daemons []*daemon
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start boots one simjoind with the given flags and waits until it
// answers GET /healthz.
func (f *fleet) start(name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port for %s: %w", name, err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(f.dir, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(f.bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	logf.Close()
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	f.mu.Lock()
	f.daemons = append(f.daemons, d)
	f.mu.Unlock()
	if err := waitHealthy(d); err != nil {
		return nil, err
	}
	return d, nil
}

func waitHealthy(d *daemon) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up (see %s)", d.name, d.log)
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s did not become healthy", d.name)
}

// stopAll terminates every daemon and waits for each to exit: SIGTERM
// first, SIGKILL after a grace period.
func (f *fleet) stopAll() {
	f.mu.Lock()
	ds := f.daemons
	f.daemons = nil
	f.mu.Unlock()
	for _, d := range ds {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range ds {
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
}

// pids lists the running daemons' process IDs.
func (f *fleet) pids() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, len(f.daemons))
	for _, d := range f.daemons {
		out = append(out, d.cmd.Process.Pid)
	}
	return out
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// cpuTime returns the summed utime+stime of the fleet's daemons.
func (f *fleet) cpuTime() time.Duration {
	var total time.Duration
	for _, pid := range f.pids() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		i := bytes.LastIndexByte(b, ')')
		if i < 0 {
			continue
		}
		fs := strings.Fields(string(b[i+1:]))
		if len(fs) < 13 {
			continue
		}
		u, _ := strconv.ParseInt(fs[11], 10, 64)
		s, _ := strconv.ParseInt(fs[12], 10, 64)
		total += time.Duration(u+s) * clockTick
	}
	return total
}

// statusMB sums one /proc/<pid>/status memory field (VmHWM, VmRSS)
// over the fleet's daemons, in MiB.
func (f *fleet) statusMB(field string) float64 {
	var kb int64
	for _, pid := range f.pids() {
		fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
				n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				kb += n
			}
		}
		fh.Close()
	}
	return float64(kb) / 1024
}

// scanPanics reports every daemon log in dir that mentions a panic.
func scanPanics(dir string) []string {
	logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	var bad []string
	for _, l := range logs {
		b, err := os.ReadFile(l)
		if err == nil && bytes.Contains(b, []byte("panic")) {
			bad = append(bad, filepath.Base(l))
		}
	}
	return bad
}
