package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/datagen"
	"nntstream/internal/graph"
)

// streamWorkload is a ready-to-run continuous-search input.
type streamWorkload struct {
	name    string
	queries []*graph.Graph
	streams []*graph.Stream
}

// synStreamWorkload builds the paper's synthetic stream workload: numPairs
// basic graphs (queries), each spawning a flip-process stream over its
// 1.5×-grown template.
func synStreamWorkload(cfg Config, flip datagen.FlipConfig, numPairs, timestamps int, seedOffset int64) streamWorkload {
	r := rand.New(rand.NewSource(cfg.Seed + seedOffset))
	flip.Timestamps = timestamps
	wcfg := datagen.DefaultStreamWorkload(flip)
	wcfg.Gen.NumGraphs = numPairs
	w := datagen.SyntheticStreams(wcfg, r)
	name := "syn-sparse"
	if flip.AppearProb > flip.DisappearProb {
		name = "syn-dense"
	}
	return streamWorkload{name: name, queries: w.Queries, streams: w.Streams}
}

// realStreamWorkload builds the Reality-Mining-like workload: numPairs
// queries extracted from the proximity series and numPairs streams derived
// from it.
func realStreamWorkload(cfg Config, numPairs, timestamps int, seedOffset int64) streamWorkload {
	r := rand.New(rand.NewSource(cfg.Seed + seedOffset))
	pcfg := datagen.ProximityDefaults()
	pcfg.Timestamps = timestamps
	series := datagen.Proximity(pcfg, rand.New(rand.NewSource(cfg.Seed+seedOffset)))
	streams := datagen.ProximityStreams(pcfg, numPairs, r)
	queries := datagen.ProximityQueries(series, numPairs, 2, 6, r)
	return streamWorkload{name: "real", queries: queries, streams: streams}
}

// truncate returns the workload limited to the first n queries and streams.
func (w streamWorkload) truncate(nq, ns int) streamWorkload {
	out := w
	if nq < len(w.queries) {
		out.queries = w.queries[:nq]
	}
	if ns < len(w.streams) {
		out.streams = w.streams[:ns]
	}
	return out
}

// runOutcome aggregates one filter's run over a workload.
type runOutcome struct {
	filter         string
	avgPerTS       time.Duration
	candidateRatio float64
	timestamps     int
	missedPairs    int // false negatives found during sampled verification
}

// runStream drives one filter over the workload for up to maxTS timestamps
// (0 = the full stream length). When verifyEvery > 0, every verifyEvery-th
// timestamp is checked for false negatives with exact isomorphism.
func runStream(w streamWorkload, f core.Filter, maxTS, verifyEvery int) (runOutcome, error) {
	mon := core.NewMonitor(f)
	// Streams go first: a filter that mines its streams (gIndex) mines
	// nothing while no query is registered, where each stream added after
	// the queries would re-mine them all.
	cursors := make([]*graph.Cursor, len(w.streams))
	ids := make([]core.StreamID, len(w.streams))
	for i, s := range w.streams {
		cursors[i] = graph.NewCursor(s)
		id, err := mon.AddStream(s.Start)
		if err != nil {
			return runOutcome{}, fmt.Errorf("add stream: %w", err)
		}
		ids[i] = id
	}
	for _, q := range w.queries {
		if _, err := mon.AddQuery(q); err != nil {
			return runOutcome{}, fmt.Errorf("add query: %w", err)
		}
	}
	total := w.streams[0].Timestamps() - 1
	if maxTS > 0 && maxTS < total {
		total = maxTS
	}
	missed := 0
	for t := 0; t < total; t++ {
		changes := make(map[core.StreamID]graph.ChangeSet, len(cursors))
		for i, c := range cursors {
			cs, ok := c.Next()
			if !ok {
				continue
			}
			if len(cs) > 0 {
				changes[ids[i]] = cs
			}
		}
		if _, err := mon.StepAll(changes); err != nil {
			return runOutcome{}, err
		}
		if verifyEvery > 0 && t%verifyEvery == 0 {
			missed += len(mon.VerifyNoFalseNegatives())
		}
	}
	st := mon.Stats()
	return runOutcome{
		filter:         f.Name(),
		avgPerTS:       st.AvgTimePerTimestamp(),
		candidateRatio: st.CandidateRatio(),
		timestamps:     st.Timestamps,
		missedPairs:    missed,
	}, nil
}

// fmtMS renders a duration as fractional milliseconds.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// fmtPct renders a ratio as a percentage.
func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
