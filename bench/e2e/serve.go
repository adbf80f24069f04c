package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"nntstream/bench/measure"
)

// server is one spawned cmd/serve process.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  string
}

// buildServe compiles the system under test from the checkout's sources.
func buildServe(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/serve")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/serve: %v\n%s", err, b)
	}
	return nil
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

// startServe spawns serve with the flags a user gets by default plus the
// given extras, GOMAXPROCS=2 in its environment, and waits until
// /v1/healthz answers. dir receives the process's log.
func startServe(bin, dir string, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &server{addr: addr, log: filepath.Join(dir, "serve.log")}
	logf, err := os.Create(s.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting serve: %w", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if c, err := dial(addr); err == nil {
			status, _, err := c.do("GET", "/v1/healthz", nil)
			c.close()
			if err == nil && status == 200 {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("serve did not become healthy on %s:\n%s", addr, s.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the process and waits for it. The benchmark never needs a
// graceful shutdown: every answer it uses was already received.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(s.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuSeconds reads the process's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return measure.ParseStatCPU(b)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kb, err := measure.ParseStatusKB(b, "VmHWM")
	return float64(kb) / 1024, err
}
