// Command streamwatch runs continuous subgraph pattern search over recorded
// graph streams: it loads a query database and one or more stream files,
// drives the selected filter timestamp by timestamp, and prints the
// possibly-joinable (stream, query) pairs whenever they change.
//
// Usage:
//
//	streamwatch -queries patterns.g [-filter dsc|skyline|nl|branch|graphgrep|gindex1|gindex2|exact]
//	            [-depth 3] [-verify] stream1.gs [stream2.gs ...]
//
// With -remote URL the same workload is replayed against a running /v1 API —
// a single-node serve or a cluster coordinator (cmd/coordinator) — instead of
// an in-process monitor. Every request runs under a retry.Policy, so brief
// outages (a coordinator mid-failover answering 503, a dropped connection)
// are retried with backoff rather than aborting the replay; the coordinator's
// idempotent write API makes re-sending safe. -filter/-depth are the remote
// engine's choice and are ignored, and -verify is local-only.
//
// File formats are the line-oriented formats of internal/graph: query
// databases use gSpan-style "t/v/e" sections, streams add "ts" sections
// with "+ u v ulab vlab elab" and "- u v" change lines (see cmd/datagen to
// generate both).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"

	"nntstream/internal/core"
	"nntstream/internal/gindex"
	"nntstream/internal/graph"
	"nntstream/internal/graphgrep"
	"nntstream/internal/join"
	"nntstream/internal/npv"
	"nntstream/internal/retry"
	"nntstream/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streamwatch: ")
	queriesPath := flag.String("queries", "", "query pattern database file (required)")
	filterName := flag.String("filter", "dsc", "filter: dsc, skyline, nl, branch, graphgrep, gindex1, gindex2, exact")
	depth := flag.Int("depth", join.DefaultDepth, fmt.Sprintf("NNT depth bound for the NPV filters, in [1, %d]", npv.MaxDepth))
	verify := flag.Bool("verify", false, "confirm reported pairs with exact isomorphism (local mode only)")
	quiet := flag.Bool("quiet", false, "only print the summary")
	remote := flag.String("remote", "", "replay against this /v1 base URL (serve or coordinator) instead of an in-process monitor")
	retryAttempts := flag.Int("retry-attempts", retry.DefaultMaxAttempts, "attempts per remote request before giving up (-remote only)")
	flag.Parse()

	if *queriesPath == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Build the filter before reading any file, so a bad -filter or -depth
	// fails at once; a remote replay runs the remote engine's filter.
	var f core.Filter
	if *remote == "" {
		var err error
		if f, err = makeFilter(*filterName, *depth); err != nil {
			log.Fatal(err)
		}
	}

	qf, err := os.Open(*queriesPath)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := graph.ReadDatabase(qf)
	qf.Close()
	if err != nil {
		log.Fatalf("reading queries: %v", err)
	}

	var streams []*graph.Stream
	for _, path := range flag.Args() {
		sf, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		s, err := graph.ReadStream(sf)
		sf.Close()
		if err != nil {
			log.Fatalf("reading stream %s: %v", path, err)
		}
		streams = append(streams, s)
	}

	if *remote != "" {
		if *verify {
			log.Fatal("-verify needs the in-process exact engine; it cannot run against -remote")
		}
		runRemote(*remote, *retryAttempts, queries, streams, *quiet)
		return
	}

	mon := core.NewMonitor(f)
	// Streams before queries, so gIndex mines once at the first step rather
	// than once per stream added.
	var cursors []*graph.Cursor
	var ids []core.StreamID
	for _, s := range streams {
		id, err := mon.AddStream(s.Start)
		if err != nil {
			log.Fatal(err)
		}
		cursors = append(cursors, graph.NewCursor(s))
		ids = append(ids, id)
	}
	for _, q := range queries {
		if _, err := mon.AddQuery(q); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("watching %d streams for %d patterns with %s\n",
		len(ids), len(queries), mon.FilterName())

	prev := ""
	t := 0
	for {
		changes := make(map[core.StreamID]graph.ChangeSet)
		advanced := false
		for i, c := range cursors {
			cs, ok := c.Next()
			if !ok {
				continue
			}
			advanced = true
			if len(cs) > 0 {
				changes[ids[i]] = cs
			}
		}
		if !advanced {
			break
		}
		t++
		pairs, err := mon.StepAll(changes)
		if err != nil {
			log.Fatal(err)
		}
		if *verify {
			pairs = confirm(mon, pairs)
		}
		if cur := fmt.Sprint(pairs); cur != prev && !*quiet {
			fmt.Printf("t=%d: %v\n", t, pairs)
			prev = cur
		}
	}

	st := mon.Stats()
	fmt.Printf("done: %d timestamps, avg filter time %v, candidate ratio %.2f%%\n",
		st.Timestamps, st.AvgTimePerTimestamp(), 100*st.CandidateRatio())
}

// remoteMonitor replays the workload over a /v1 HTTP API. Each request runs
// under a retry.Policy: transport failures and gateway statuses (502/503/504
// — what a coordinator answers while a group is degraded or mid-failover) are
// retried with jittered backoff, while deliberate responses like 400 or 409
// are permanent. Re-sending is safe against the coordinator, whose write API
// is idempotent; a plain serve node never emits gateway statuses, so retries
// there only cover reconnects.
type remoteMonitor struct {
	base   string
	client *http.Client
	policy retry.Policy
}

func (m *remoteMonitor) call(ctx context.Context, method, path string, in, out any) error {
	return m.policy.Do(ctx, func(ctx context.Context) error {
		var body io.Reader
		if in != nil {
			data, err := json.Marshal(in)
			if err != nil {
				return retry.Permanent(err)
			}
			body = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, m.base+path, body)
		if err != nil {
			return retry.Permanent(err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := m.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			err := fmt.Errorf("%s %s: %s: %s", method, path, resp.Status,
				strings.TrimSpace(string(data)))
			switch resp.StatusCode {
			case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				return err
			}
			return retry.Permanent(err)
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return retry.Permanent(err)
			}
		}
		return nil
	})
}

func runRemote(base string, attempts int, queries []*graph.Graph, streams []*graph.Stream, quiet bool) {
	m := &remoteMonitor{
		base:   strings.TrimSuffix(base, "/"),
		client: &http.Client{},
		policy: retry.Policy{MaxAttempts: attempts},
	}
	ctx := context.Background()

	for i, q := range queries {
		var resp struct {
			ID int `json:"id"`
		}
		if err := m.call(ctx, http.MethodPost, "/v1/queries",
			map[string]server.WireGraph{"graph": server.FromGraph(q)}, &resp); err != nil {
			log.Fatalf("registering query %d: %v", i, err)
		}
	}

	var cursors []*graph.Cursor
	var ids []int
	for i, s := range streams {
		var resp struct {
			ID int `json:"id"`
		}
		if err := m.call(ctx, http.MethodPost, "/v1/streams",
			map[string]server.WireGraph{"graph": server.FromGraph(s.Start)}, &resp); err != nil {
			log.Fatalf("registering stream %d: %v", i, err)
		}
		cursors = append(cursors, graph.NewCursor(s))
		ids = append(ids, resp.ID)
	}
	fmt.Printf("watching %d streams for %d patterns via %s\n", len(ids), len(queries), m.base)

	prev := ""
	t := 0
	for {
		changes := make(map[string][]server.WireOp)
		advanced := false
		for i, c := range cursors {
			cs, ok := c.Next()
			if !ok {
				continue
			}
			advanced = true
			if len(cs) > 0 {
				changes[strconv.Itoa(ids[i])] = wireOps(cs)
			}
		}
		if !advanced {
			break
		}
		t++
		var resp struct {
			Pairs []server.WirePair `json:"pairs"`
		}
		if err := m.call(ctx, http.MethodPost, "/v1/step",
			map[string]map[string][]server.WireOp{"changes": changes}, &resp); err != nil {
			log.Fatalf("t=%d: %v", t, err)
		}
		pairs := make([]core.Pair, 0, len(resp.Pairs))
		for _, p := range resp.Pairs {
			pairs = append(pairs, core.Pair{Stream: core.StreamID(p.Stream), Query: core.QueryID(p.Query)})
		}
		if cur := fmt.Sprint(pairs); cur != prev && !quiet {
			fmt.Printf("t=%d: %v\n", t, pairs)
			prev = cur
		}
	}

	var st struct {
		Timestamps     int     `json:"timestamps"`
		AvgFilterMs    float64 `json:"avg_filter_ms"`
		CandidateRatio float64 `json:"candidate_ratio"`
	}
	if err := m.call(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		log.Fatalf("fetching stats: %v", err)
	}
	fmt.Printf("done: %d timestamps, avg filter time %.3fms, candidate ratio %.2f%%\n",
		st.Timestamps, st.AvgFilterMs, 100*st.CandidateRatio)
}

func wireOps(cs graph.ChangeSet) []server.WireOp {
	out := make([]server.WireOp, 0, len(cs))
	for _, op := range cs {
		if op.Kind == graph.OpInsert {
			out = append(out, server.WireOp{Op: "ins", U: int32(op.U), V: int32(op.V),
				ULabel: uint16(op.ULabel), VLabel: uint16(op.VLabel), ELabel: uint16(op.EdgeLabel)})
		} else {
			out = append(out, server.WireOp{Op: "del", U: int32(op.U), V: int32(op.V)})
		}
	}
	return out
}

func confirm(mon *core.Monitor, pairs []core.Pair) []core.Pair {
	exact := make(map[core.Pair]bool)
	for _, p := range mon.ExactPairs() {
		exact[p] = true
	}
	var out []core.Pair
	for _, p := range pairs {
		if exact[p] {
			out = append(out, p)
		}
	}
	return out
}

func makeFilter(name string, depth int) (core.Filter, error) {
	if depth < 1 || depth > npv.MaxDepth {
		return nil, fmt.Errorf("-depth must be in [1, %d], got %d", npv.MaxDepth, depth)
	}
	switch name {
	case "dsc":
		return join.NewDSC(depth), nil
	case "skyline":
		return join.NewSkyline(depth), nil
	case "nl":
		return join.NewNL(depth), nil
	case "branch":
		return join.NewBranch(depth), nil
	case "graphgrep":
		return graphgrep.New(graphgrep.DefaultLength), nil
	case "gindex1":
		return gindex.New(gindex.Setting1()), nil
	case "gindex2":
		return gindex.New(gindex.Setting2()), nil
	case "exact":
		return join.NewExact(), nil
	default:
		return nil, fmt.Errorf("unknown filter %q", name)
	}
}
