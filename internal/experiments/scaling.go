package experiments

import (
	"fmt"
	"runtime"
	"slices"

	"nntstream/internal/core"
	"nntstream/internal/datagen"
	"nntstream/internal/graph"
	"nntstream/internal/join"
)

// Scaling measures the engine's one parallelism axis (an extension beyond
// the paper): wall-clock cost per timestamp for the DSC filter as its
// evaluation pool grows over 1, 2, and 4 workers, with a candidate-set
// equality check against the sequential run at the final timestamp.
func Scaling(cfg Config) (*Result, error) {
	pairs := cfg.scaled(70, 16)
	ts := cfg.scaled(300, 20)
	w := synStreamWorkload(cfg, datagen.SparseFlipDefaults(), pairs, ts, 7701)

	res := &Result{
		Name:    "Scaling",
		Caption: "evaluation-pool wall time per timestamp (NPV-DSC, sparse synthetic)",
		Header:  []string{"workers", "avg time/ts (ms)", "speedup", "candidates match"},
		Notes: []string{
			fmt.Sprintf("workload: %d×%d sparse synthetic, %d timestamps (scale %.2f), GOMAXPROCS %d; the evaluation pool is an extension beyond the paper", pairs, pairs, ts, cfg.Scale, runtime.GOMAXPROCS(0)),
		},
	}

	var baseline float64
	var reference []core.Pair
	for _, workers := range []int{1, 2, 4} {
		cfg.logf("scaling: %d workers", workers)
		f := join.NewDSC(join.DefaultDepth)
		f.SetWorkers(workers)
		mon := core.NewMonitor(f)
		for _, q := range w.queries {
			if _, err := mon.AddQuery(q); err != nil {
				return nil, err
			}
		}
		cursors := make([]*graph.Cursor, len(w.streams))
		ids := make([]core.StreamID, len(w.streams))
		for i, s := range w.streams {
			cursors[i] = graph.NewCursor(s)
			id, err := mon.AddStream(s.Start)
			if err != nil {
				return nil, err
			}
			ids[i] = id
		}
		for t := 0; t < ts; t++ {
			changes := make(map[core.StreamID]graph.ChangeSet, len(cursors))
			for i, c := range cursors {
				if cs, ok := c.Next(); ok && len(cs) > 0 {
					changes[ids[i]] = cs
				}
			}
			if _, err := mon.StepAll(changes); err != nil {
				return nil, err
			}
		}
		st := mon.Stats()
		ms := float64(st.AvgTimePerTimestamp().Microseconds()) / 1000.0
		match, speedup := "—", "1.00×"
		switch {
		case workers == 1:
			baseline = ms
			reference = mon.Candidates()
		case slices.Equal(mon.Candidates(), reference):
			match = "yes"
		default:
			match = "NO"
		}
		if workers > 1 && ms > 0 {
			speedup = fmt.Sprintf("%.2f×", baseline/ms)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", workers), fmt.Sprintf("%.3f", ms), speedup, match,
		})
	}
	return res, nil
}
