package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nntstream/bench/drive"
	"nntstream/bench/gen"
	"nntstream/bench/measure"
)

// calibrationPoints is how often per pass the reference loop runs (≈ 60 ms
// each).
const calibrationPoints = 12

// calibrate runs the reference loop in a child of this very binary. A fresh
// process starts from an empty heap, so the loop's allocation and GC work is
// the same every time; inside this process it would depend on how much
// workload data happens to be live (it ran 1.6× faster when four workloads
// were loaded than with one).
func calibrate() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-calibrate")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("calibration child: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("calibration child printed %q", out)
	}
	return time.Duration(ns), nil
}

// passResult is one pass's measurements plus what the correctness checks
// need.
type passResult struct {
	measure.Pass
	Final []drive.Pair // /v1/candidates after the last scripted request
}

// connect opens the benchmark's one connection to a spawned server.
func connect(srv *server) (*client, *drive.Session, error) {
	c, err := dial(srv.addr)
	if err != nil {
		return nil, nil, err
	}
	return c, drive.NewSession(c.do), nil
}

// runPass measures one pass of w against a fresh durable server. Set-up
// (spawn, health, registration, warm-up) is timed as one figure; the
// measured phase is the script. The first failed request aborts the pass:
// every later answer would be wrong anyway.
func runPass(serveBin, dir string, w *gen.Workload) (res passResult, err error) {
	t0 := time.Now()
	srv, err := startServe(serveBin, dir, "-data-dir", dir+"/data")
	if err != nil {
		return res, err
	}
	defer srv.stop()
	c, s, err := connect(srv)
	if err != nil {
		return res, err
	}
	defer c.close()
	if _, err := s.SetUp(w); err != nil {
		return res, fmt.Errorf("set-up: %w\n%s", err, srv.logTail())
	}
	res.SetupS = time.Since(t0).Seconds()

	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return res, err
	}
	start := time.Now()
	// The reference loop runs at calibrationPoints evenly spaced moments of
	// the script, between requests, so that it samples the same seconds of
	// machine state the requests do; its time is not part of the pass.
	every := max(1, len(w.Script)/calibrationPoints)
	var calibrating time.Duration
	for i, req := range w.Script {
		if err := s.Run(req, &res.Pass); err != nil {
			return res, fmt.Errorf("request %d: %w\n%s", i, err, srv.logTail())
		}
		if (i+1)%every == 0 {
			calibStart := time.Now()
			d, err := calibrate()
			if err != nil {
				return res, err
			}
			calibrating += time.Since(calibStart)
			res.CalibMs = append(res.CalibMs, float64(d)/float64(time.Millisecond))
		}
	}
	res.WallS = (time.Since(start) - calibrating).Seconds()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return res, err
	}
	res.CPUS = cpu1 - cpu0
	if res.PeakRSS, err = srv.peakRSSMiB(); err != nil {
		return res, err
	}
	res.Final, err = s.Candidates()
	return res, err
}
