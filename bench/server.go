package main

import (
	"bytes"
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

// buildXtqd compiles cmd/xtqd from the working tree into dir. The bench
// module replaces xtq with its parent directory, so the import path
// resolves to the sources this checkout holds; a warm build cache makes
// the call a sub-second no-op.
func buildXtqd(dir string) (string, error) {
	bin := filepath.Join(dir, "xtqd")
	cmd := exec.Command("go", "build", "-o", bin, "xtq/cmd/xtqd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building xtqd (run from the bench directory): %v\n%s", err, out)
	}
	return bin, nil
}

// server is one spawned xtqd with its scratch directory.
type server struct {
	cmd  *exec.Cmd
	url  string
	dir  string // scratch (WAL) directory, removed by stop
	logs bytes.Buffer

	exited chan struct{} // closed once the process has been waited for
	stopMu sync.Mutex
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns xtqd on a free loopback port with a fresh scratch
// directory under scratchRoot and returns once /healthz answers.
// durable selects `-wal <scratch> -fsync always`.
func startServer(bin, scratchRoot string, durable bool) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "xtqd-scratch-")
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	if durable {
		args = append(args, "-wal", filepath.Join(dir, "wal"), "-fsync", "always")
	}
	s := &server{url: "http://" + addr, dir: dir, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = &s.logs, &s.logs
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	// Health probes open a connection each, so none outlives the wait.
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probe.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if s.dead() || time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("xtqd did not become healthy: %v\n%s", err, s.logs.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// dead reports whether the process has exited.
func (s *server) dead() bool {
	select {
	case <-s.exited:
		return true
	default:
		return false
	}
}

// stop terminates the process (SIGTERM, then SIGKILL after 5 s), waits
// for it and removes the scratch directory. It is idempotent.
func (s *server) stop() {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if !s.dead() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(5 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	}
	os.RemoveAll(s.dir)
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat; Linux fixes
// it at 100 for user space on every architecture Go supports.
const userHZ = 100

// cpuMS returns the process's user+system CPU time in milliseconds.
func (s *server) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces, so fields are counted from
// the closing parenthesis.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: short line %q", stat)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad cpu fields in %q", stat)
	}
	return (utime + stime) * 1000 / userHZ, nil
}

// hwmMB returns the process's peak resident set (VmHWM) in MB.
func (s *server) hwmMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM for pid %d", s.cmd.Process.Pid)
}
