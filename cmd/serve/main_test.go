package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"nntstream/internal/cluster"
	"nntstream/internal/core"
	"nntstream/internal/join"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
	"nntstream/internal/server"
	"nntstream/internal/wal"
)

// family is one metric's TYPE and HELP as the exposition declares them.
type family struct{ typ, help string }

// parseExposition reads a Prometheus text exposition and fails t unless
// every series is preceded by a non-empty # HELP and a # TYPE of counter,
// gauge or histogram. It returns the declared families by name.
func parseExposition(t *testing.T, text string) map[string]family {
	t.Helper()
	fams := map[string]family{}
	help, typ := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, _ := strings.Cut(rest, " ")
			help[name] = h
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if help[name] == "" {
				t.Errorf("%s: # TYPE without a preceding # HELP", name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("%s: # TYPE %s", name, kind)
			}
			typ[name] = kind
			fams[name] = family{kind, help[name]}
			continue
		}
		name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
		if typ[name] != "" {
			continue
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if typ[base] != "histogram" {
			t.Errorf("series %s has no # TYPE", name)
		}
	}
	return fams
}

// serveStack builds serve's engine and API server as main does, with the
// given filter, durable when dataDir is set, and drives one query, one
// stream and one step through the API. It returns the API handler.
func serveStack(t *testing.T, filter, dataDir string) http.Handler {
	t.Helper()
	factory, err := filterFactory(filter, join.DefaultDepth)
	if err != nil {
		t.Fatal(err)
	}
	srv, durable, err := newServer(factory, dataDir, core.DurableOptions{Fsync: wal.SyncAlways}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if durable != nil {
		t.Cleanup(func() { durable.Close() })
	}
	h := srv.Handler()
	edge := `{"graph":{"vertices":[{"id":0,"label":1},{"id":1,"label":2}],"edges":[{"u":0,"v":1,"label":0}]}}`
	for _, req := range [][2]string{
		{"/v1/queries", edge},
		{"/v1/streams", edge},
		{"/v1/step", `{"changes":{"0":[{"op":"ins","u":1,"v":2,"ulabel":2,"vlabel":1,"elabel":0}]}}`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req[0], strings.NewReader(req[1])))
		if rec.Code >= 300 {
			t.Fatalf("POST %s = %d: %s", req[0], rec.Code, rec.Body)
		}
	}
	return h
}

// scrape renders the /v1/metrics body h serves.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// TestServeMetricsAllTyped scrapes serve's stack durable under Skyline and
// in memory under NL: every series is a typed registry instrument with a
// HELP line, so nothing is exposed untyped.
func TestServeMetricsAllTyped(t *testing.T) {
	for _, c := range []struct{ filter, dataDir string }{
		{"skyline", t.TempDir()},
		{"nl", ""},
	} {
		t.Run(c.filter, func(t *testing.T) {
			text := scrape(t, serveStack(t, c.filter, c.dataDir))
			fams := parseExposition(t, text)
			want := []string{"nntstream_engine_streams", "nntstream_filter_nnt_nodes", "nntstream_npv_dominance_tests_total"}
			if c.dataDir != "" {
				want = append(want, "nntstream_wal_fsync_seconds", "nntstream_skyline_dimensions")
			}
			for _, name := range want {
				if _, ok := fams[name]; !ok {
					t.Errorf("exposition lacks %s", name)
				}
			}
			if t.Failed() {
				t.Logf("exposition:\n%s", text)
			}
		})
	}
}

// TestWorkerMetricsServeProcessCounters checks a cluster worker's
// /v1/metrics carries the process-global kernel and index counters.
func TestWorkerMetricsServeProcessCounters(t *testing.T) {
	reg := obs.NewRegistry()
	wk := cluster.NewWorker("w1", t.TempDir(), cluster.WorkerOptions{
		Factory:    func() core.Filter { return join.NewSkyline(join.DefaultDepth) },
		Metrics:    cluster.NewMetrics(reg),
		WALMetrics: wal.NewMetrics(reg),
	})
	t.Cleanup(func() { wk.Close() })
	fams := parseExposition(t, scrape(t, workerHandler(wk, reg)))
	for _, name := range []string{
		"nntstream_npv_dominance_tests_total", "nntstream_npv_sig_rejects_total",
		"nntstream_qindex_candidates_total", "nntstream_qindex_pruned_total",
		"nntstream_cluster_records_shipped_total", "nntstream_wal_fsync_seconds",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("worker exposition lacks %s", name)
		}
	}
}

// TestFilterFactoryRejectsDepthOutOfRange: a depth the NPV store cannot
// count fails when serve starts, naming the range, for every filter — not
// in the first request that would build a stream's store.
func TestFilterFactoryRejectsDepthOutOfRange(t *testing.T) {
	want := fmt.Sprintf("[1, %d]", npv.MaxDepth)
	for _, filter := range []string{"skyline", "nl", "exact"} {
		for _, depth := range []int{0, npv.MaxDepth + 1} {
			if _, err := filterFactory(filter, depth); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("filterFactory(%q, %d) error = %v; want one naming %s", filter, depth, err, want)
			}
		}
		if _, err := filterFactory(filter, npv.MaxDepth); err != nil {
			t.Errorf("filterFactory(%q, %d): %v", filter, npv.MaxDepth, err)
		}
	}
}

const (
	tableBegin = "<!-- metrics-table:begin -->\n"
	tableEnd   = "<!-- metrics-table:end -->"
)

// TestMetricTableMatchesREADME renders the name/type/help table of every
// series a shipped binary exposes — serve's durable Skyline stack plus the
// coordinator's cluster instruments — and compares it with README's
// Observability table, so an instrument added or renamed without the
// README fails here.
func TestMetricTableMatchesREADME(t *testing.T) {
	coord := obs.NewRegistry()
	cluster.NewMetrics(coord)
	byName := map[string]family{}
	for _, h := range []http.Handler{serveStack(t, "skyline", t.TempDir()), server.MetricsHandler(coord)} {
		for name, f := range parseExposition(t, scrape(t, h)) {
			byName[name] = f
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	table.WriteString("| Name | Type | Help |\n|---|---|---|\n")
	for _, name := range names {
		f := byName[name]
		fmt.Fprintf(&table, "| `%s` | %s | %s |\n", name, f.typ, f.help)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), tableBegin)
	got, _, ok2 := strings.Cut(rest, tableEnd)
	if !ok || !ok2 {
		t.Fatalf("README.md has no %q … %q section", strings.TrimSpace(tableBegin), tableEnd)
	}
	if got != table.String() {
		t.Fatalf("README.md metric table is stale (%d series exposed); replace it with:\n%s", len(names), table.String())
	}
}
