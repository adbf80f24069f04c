// Command e2e is the black-box half of the benchmark: it builds cmd/serve
// from the checkout, spawns it with the flags a user gets by default, and
// drives it over HTTP from one closed-loop client. It imports nothing from
// nntstream/internal, so deleting or rewriting any layer of the system
// cannot break the judge that layer is measured by.
//
//	e2e --workload <name> --seed <n> --seconds <s> --trace 0   one run, JSON result on the last line
//	e2e --workload <name> ... --trace 1                        per-layer metrics (delegates to bench/layers)
//	e2e --workload all                                         every metric of every workload, as a table
//	e2e -repeat N -sets 2 [--workload all]                     noise study: alternating sets of runs
//
// Run it from the checkout root (bench/run.sh does).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"nntstream/bench/gen"
	"nntstream/bench/measure"
)

// passesPerRun is fixed: three fresh server processes per workload sample
// three stretches of machine state, and the median set-up needs an odd count.
const passesPerRun = 3

// metric is one row of the end-to-end glossary; BENCHMARK.json repeats it.
type metric struct {
	name, unit string
	bound      float64 // share of the parent's median it may worsen by
	value      func(measure.EndToEnd) float64
}

var endToEnd = []metric{
	{"setup_s", "s", 0.25, func(m measure.EndToEnd) float64 { return m.SetupS }},
	{"steps_per_s", "1/s", 0.25, func(m measure.EndToEnd) float64 { return m.StepsPerS }},
	{"ingest_p50_ms", "ms", 0.25, func(m measure.EndToEnd) float64 { return m.IngestP50Ms }},
	{"read_p50_ms", "ms", 0.25, func(m measure.EndToEnd) float64 { return m.ReadP50Ms }},
	{"cpu_ms_per_step", "ms", 0.25, func(m measure.EndToEnd) float64 { return m.CPUMsPerStep }},
	{"peak_rss_mb", "MiB", 0.20, func(m measure.EndToEnd) float64 { return m.PeakRSSMB }},
	{"candidate_ratio", "ratio", 0.20, func(m measure.EndToEnd) float64 { return m.CandidateRatio }},
}

// env is where one invocation builds and runs things.
type env struct {
	root     string // checkout root (the working directory)
	work     string // scratch for this invocation, removed at exit
	serveBin string
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", gen.ReferenceSeconds, "measured seconds per run on the reference sandbox (scales the fixed step counts)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced in-process pass")
	repeat := flag.Int("repeat", 0, "noise study: runs per set")
	sets := flag.Int("sets", 2, "noise study: alternating sets")
	calibrateOnly := flag.Bool("calibrate", false, "run the machine-speed reference loop once, print its nanoseconds, exit (used by the benchmark on itself)")
	flag.Parse()
	if *calibrateOnly {
		fmt.Println(measure.Calibrate().Nanoseconds())
		return
	}
	// Children are started with Pdeathsig so that none outlives a killed
	// benchmark; that signal follows the spawning *thread*, so the goroutine
	// that spawns stays on the main thread for the life of the process.
	runtime.LockOSThread()
	if err := run(*workload, *seed, *seconds, *trace, *repeat, *sets); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace, repeat, sets int) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	e := env{root: root, serveBin: filepath.Join(build, "bin", "serve")}
	if e.work, err = os.MkdirTemp(build, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	var specs []gen.Spec
	if workload == "all" {
		specs = gen.Specs
	} else if s, ok := gen.Lookup(workload); ok {
		specs = []gen.Spec{s}
	} else {
		return fmt.Errorf("unknown workload %q", workload)
	}
	scale := seconds / gen.ReferenceSeconds

	if trace == 1 && repeat == 0 && workload != "all" {
		return runLayers(e, os.Stdout, workload, seed, seconds)
	}
	if err := buildServe(e.root, e.serveBin); err != nil {
		return err
	}
	switch {
	case repeat > 0:
		return noiseStudy(e, specs, seed, scale, repeat, sets)
	case workload == "all":
		return printAll(e, specs, seed, seconds)
	}
	w := specs[0].Build(seed, scale)
	res, runErr := measureRun(e, []*gen.Workload{w}, true)[0].result()
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return runErr
}

// runResult is one run of one workload: its passes and the first error.
type runResult struct {
	w      *gen.Workload
	passes []passResult
	err    error
}

// measureRun runs passesPerRun passes of every workload, interleaved
// round-robin (A B C D A B C D …) so that all workloads of one run sample
// the same stretch of machine state, then applies the correctness checks.
// With twins false only the cross-pass check runs (the noise study boots the
// twin servers once, not on every repetition).
func measureRun(e env, ws []*gen.Workload, twins bool) []runResult {
	out := make([]runResult, len(ws))
	for i, w := range ws {
		out[i].w = w
	}
	for pass := 0; pass < passesPerRun; pass++ {
		for i, w := range ws {
			if out[i].err != nil {
				continue
			}
			dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", w.Name, pass))
			p, err := runPass(e.serveBin, dir, w)
			os.RemoveAll(dir)
			out[i].passes = append(out[i].passes, p)
			fmt.Fprintf(os.Stderr, "%s pass %d: setup %.2fs, %d steps in %.2fs, cpu %.2fs, machine ×%.2f, %d ingests, %d reads, Σpairs %d, final %d pairs\n",
				w.Name, pass, p.SetupS, p.Steps, p.WallS, p.CPUS, p.Slowdown(), len(p.IngestMs), len(p.ReadMs), p.Pairs, len(p.Final))
			if err != nil {
				out[i].err = fmt.Errorf("%s pass %d: %w", w.Name, pass, err)
			}
		}
	}
	for i, w := range ws {
		if out[i].err == nil {
			dir := filepath.Join(e.work, w.Name+"-check")
			if err := checkRun(e.serveBin, dir, w, out[i].passes, twins); err != nil {
				out[i].err = fmt.Errorf("%s: %w", w.Name, err)
			}
			os.RemoveAll(dir)
		}
	}
	return out
}

// pool folds the run's passes into the end-to-end metrics.
func (r runResult) pool() measure.EndToEnd {
	passes := make([]measure.Pass, len(r.passes))
	for i, p := range r.passes {
		passes[i] = p.Pass
	}
	return measure.Pool(passes, len(r.w.Streams)*r.w.LiveQueries)
}

// result renders the driver's line. Any error fails every operation of the
// run: a benchmark whose answers are wrong has measured nothing.
func (r runResult) result() (measure.Result, error) {
	res := measure.Result{Correct: r.err == nil, Metrics: map[string]measure.MetricValue{}}
	res.Attempted = passesPerRun * r.w.Operations()
	if r.err != nil {
		res.Failed = res.Attempted
		return res, r.err
	}
	m := r.pool()
	for _, em := range endToEnd {
		res.Metrics[em.name] = measure.MetricValue{Value: em.value(m), Unit: em.unit}
	}
	return res, nil
}

// runLayers builds bench/layers and runs its traced in-process pass; the
// per-layer result line is whatever it prints last. Keeping the probe a
// separate program means this file still compiles after a layer it reaches
// into is deleted.
func runLayers(e env, out *os.File, workload string, seed uint64, seconds float64) error {
	bin := filepath.Join(e.root, ".bench_build", "bin", "layers")
	cmd := exec.Command("go", "build", "-o", bin, "./layers")
	cmd.Dir = filepath.Join(e.root, "bench")
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building bench/layers: %v\n%s", err, b)
	}
	// The probe is three passes long; a hung one must not outlive the
	// driver's patience.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd = exec.CommandContext(ctx, bin,
		"--workload", workload,
		"--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds),
		"--dir", filepath.Join(e.work, "layers-"+workload),
		"--spans", filepath.Join(e.root, ".bench_build", "spans-"+workload+".json"))
	cmd.Dir = e.root
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd.Run()
}
