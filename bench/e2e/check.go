package main

import (
	"fmt"

	"nntstream/bench/drive"
	"nntstream/bench/gen"
)

// twinCandidates boots a fresh in-memory serve (plus extra flags), registers
// the workload's surviving queries and its *final* stream graphs as G0, and
// returns /v1/candidates with queries named by their original registration
// index.
func twinCandidates(serveBin, dir string, w *gen.Workload, extra ...string) ([]drive.Pair, error) {
	srv, err := startServe(serveBin, dir, extra...)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c, s, err := connect(srv)
	if err != nil {
		return nil, err
	}
	defer c.close()
	for _, q := range w.FinalQueries {
		if err := s.AddQuery(q); err != nil {
			return nil, err
		}
	}
	for i, g := range w.FinalStreams {
		if err := s.AddStream(g, i); err != nil {
			return nil, err
		}
	}
	got, err := s.Candidates()
	if err != nil {
		return nil, err
	}
	// The twin registered only the survivors, so its j-th query is the
	// original FinalQueryID[j]; the mapping is increasing, so order holds.
	for i := range got {
		got[i].Query = w.FinalQueryID[got[i].Query]
	}
	return got, nil
}

// checkRun applies the fatal correctness checks to one run's passes: always
// the cross-pass one, and with twins also the two that boot extra servers.
func checkRun(serveBin, dir string, w *gen.Workload, passes []passResult, twins bool) error {
	// (c) every pass saw the same answers.
	for i, p := range passes[1:] {
		if p.Pairs != passes[0].Pairs {
			return fmt.Errorf("pass %d reported Σ pairs %d, pass 0 reported %d", i+1, p.Pairs, passes[0].Pairs)
		}
		if !equalPairs(p.Final, passes[0].Final) {
			return fmt.Errorf("pass %d ended with different candidates than pass 0", i+1)
		}
	}
	if !twins {
		return nil
	}
	final := passes[0].Final
	// (a) incremental ≡ from scratch.
	scratch, err := twinCandidates(serveBin, dir+"/scratch", w)
	if err != nil {
		return fmt.Errorf("from-scratch twin: %w", err)
	}
	if !equalPairs(final, scratch) {
		return fmt.Errorf("incremental candidates (%d pairs) differ from a from-scratch server's (%d pairs)", len(final), len(scratch))
	}
	// (b) no false negatives: everything exact subgraph isomorphism reports
	// must be among the candidates.
	exact, err := twinCandidates(serveBin, dir+"/exact", w, "-filter", "exact")
	if err != nil {
		return fmt.Errorf("exact twin: %w", err)
	}
	have := make(map[drive.Pair]bool, len(final))
	for _, p := range final {
		have[p] = true
	}
	for _, p := range exact {
		if !have[p] {
			return fmt.Errorf("false negative: stream %d contains query %d (registration index) but the filter dropped the pair", p.Stream, p.Query)
		}
	}
	return nil
}

func equalPairs(a, b []drive.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
