package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"nntstream/bench/gen"
	"nntstream/bench/measure"
)

// printAll is the one command that shows everything: one interleaved run of
// every workload for the end-to-end metrics, then the traced pass of each
// for the per-layer ones, as "workload metric value unit" rows.
func printAll(e env, specs []gen.Spec, seed uint64, seconds float64) error {
	var ws []*gen.Workload
	for _, s := range specs {
		ws = append(ws, s.Build(seed, seconds/gen.ReferenceSeconds))
	}
	var firstErr error
	for _, r := range measureRun(e, ws, true) {
		res, err := r.result()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		fmt.Printf("\n%s  (end to end; correct=%v attempted=%d failed=%d)\n", r.w.Name, res.Correct, res.Attempted, res.Failed)
		printMetrics(res.Metrics)
	}
	for _, s := range specs {
		tmp, err := os.CreateTemp(e.work, "layers-*.out")
		if err != nil {
			return err
		}
		err = runLayers(e, tmp, s.Name, seed, seconds)
		tmp.Close()
		if err != nil {
			return fmt.Errorf("%s: traced pass: %w", s.Name, err)
		}
		b, err := os.ReadFile(tmp.Name())
		if err != nil {
			return err
		}
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		var res measure.Result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("%s: traced pass printed no result: %w", s.Name, err)
		}
		fmt.Printf("\n%s  (per layer; correct=%v)\n", s.Name, res.Correct)
		printMetrics(res.Metrics)
	}
	return firstErr
}

func printMetrics(m map[string]measure.MetricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// noiseStudy runs `sets` alternating sets of `repeat` runs of this checkout
// (A B A B …; run r uses seed+r, as the driver varies the seed between its
// runs) and prints, per workload and end-to-end metric, each set's median
// and quartiles, each set's spread, and the gap between the set medians
// against the metric's bound. Identical code on both sides: every gap is
// noise, and a gap over its bound means the bound cannot be enforced.
func noiseStudy(e env, specs []gen.Spec, seed uint64, scale float64, repeat, sets int) error {
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	for _, s := range specs {
		values[s.Name] = map[string][][]float64{}
		for _, em := range endToEnd {
			values[s.Name][em.name] = make([][]float64, sets)
		}
	}
	start := time.Now()
	for r := 0; r < repeat*sets; r++ {
		var ws []*gen.Workload
		for _, s := range specs {
			ws = append(ws, s.Build(seed+uint64(r), scale))
		}
		for _, rr := range measureRun(e, ws, r == 0) {
			if rr.err != nil {
				return rr.err
			}
			m := rr.pool()
			for _, em := range endToEnd {
				v := values[rr.w.Name][em.name]
				v[r%sets] = append(v[r%sets], em.value(m))
			}
		}
		fmt.Fprintf(os.Stderr, "run %d/%d done (%.0fs)\n", r+1, repeat*sets, time.Since(start).Seconds())
	}

	fmt.Printf("Noise study: %d alternating sets × %d runs, seeds %d…%d, %d passes per run, %.0fs total.\n\n",
		sets, repeat, seed, seed+uint64(repeat*sets)-1, passesPerRun, time.Since(start).Seconds())
	fmt.Println("| workload | metric | set | median | Q1 | Q3 | spread (Q3−Q1)/median | worst gap between set medians | bound | ok |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	over := 0
	for _, s := range specs {
		for _, em := range endToEnd {
			var medians []float64
			for _, vs := range values[s.Name][em.name] {
				medians = append(medians, measure.Median(vs))
			}
			lo, hi := medians[0], medians[0]
			for _, m := range medians {
				lo, hi = min(lo, m), max(hi, m)
			}
			gap := (hi - lo) / lo
			ok := "yes"
			if gap > em.bound {
				ok = "NO"
				over++
			}
			for set, vs := range values[s.Name][em.name] {
				q1, q3 := measure.Quartiles(vs)
				fmt.Printf("| %s | %s | %c | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %.0f%% | %s |\n",
					s.Name, em.name, 'A'+set, medians[set], q1, q3, 100*measure.Spread(vs), 100*gap, 100*em.bound, ok)
			}
		}
	}
	if over > 0 {
		return fmt.Errorf("%d (workload, metric) pairs disagree between sets by more than their bound", over)
	}
	return nil
}
