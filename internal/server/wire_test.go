package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// pairsResponse and wirePairs are the reflective rendering the pair-list
// answers used before AppendPairs; FuzzAppendPairs holds AppendPairs to
// their bytes.
type pairsResponse struct {
	Pairs []WirePair `json:"pairs"`
}

func wirePairs(pairs []core.Pair) []WirePair {
	out := make([]WirePair, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, WirePair{Stream: int(p.Stream), Query: int(p.Query)})
	}
	return out
}

// FuzzAppendPairs checks that the appended pair-list and ingest bodies are
// byte-identical to encoding/json's. Pair i reads its two IDs from data at
// offset 8i, wrapping, so a short input still yields n pairs.
func FuzzAppendPairs(f *testing.F) {
	maxIDs := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, math.MaxInt32), math.MaxInt32)
	f.Add([]byte{}, uint16(0), 0, 0, 0)
	f.Add(make([]byte, 8), uint16(1), 0, 0, 0)
	f.Add(maxIDs, uint16(3), math.MaxInt32, 1, math.MaxInt32)
	f.Add([]byte{1, 0, 0, 0, 200, 5, 0, 0, 7}, uint16(5000), 900, 3, 2240)
	f.Fuzz(func(t *testing.T, data []byte, n uint16, steps, ops, pairs int) {
		data = append(data, make([]byte, 8)...)
		list := make([]core.Pair, n)
		for i := range list {
			off := 8 * i % (len(data) - 7)
			list[i] = core.Pair{
				Stream: core.StreamID(int32(binary.LittleEndian.Uint32(data[off:]))),
				Query:  core.QueryID(int32(binary.LittleEndian.Uint32(data[off+4:]))),
			}
		}
		want, err := json.Marshal(pairsResponse{Pairs: wirePairs(list)})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := AppendPairs(nil, list); !bytes.Equal(got, want) {
			t.Fatalf("AppendPairs(%d pairs):\n got %q\nwant %q", len(list), got, want)
		}
		if got := AppendPairs([]byte("x"), list); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("AppendPairs onto a prefix: got %q", got)
		}

		r := ingestResponse{Steps: steps, Ops: ops, Pairs: pairs}
		if want, err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := appendIngest(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("appendIngest(%+v) = %q, want %q", r, got, want)
		}
	})
}

// pairsEngine answers every step and read with one fixed pair list.
type pairsEngine struct {
	nopEngine
	pairs []core.Pair
}

func (e pairsEngine) Candidates() []core.Pair { return e.pairs }

func (e pairsEngine) StepAll(map[core.StreamID]graph.ChangeSet) ([]core.Pair, error) {
	return e.pairs, nil
}

// stubPairs lists n pairs over two streams, sorted, with IDs of up to four
// digits at the answer sizes used here.
func stubPairs(n int) []core.Pair {
	half := (n + 1) / 2
	out := make([]core.Pair, n)
	for i := range out {
		out[i] = core.Pair{Stream: core.StreamID(i / half), Query: core.QueryID(i % half)}
	}
	return out
}

// TestResponsesCarryContentLength reads answers far larger than net/http's
// 2 KB response buffer over a real socket: each must arrive in one piece
// under a Content-Length, never chunked, and decode to the engine's pairs.
func TestResponsesCarryContentLength(t *testing.T) {
	eng := pairsEngine{pairs: stubPairs(5000)}
	srv := httptest.NewServer(New(eng).Handler())
	t.Cleanup(srv.Close)

	cases := []struct {
		name, method, path, body string
		want                     int
		pairs                    bool
	}{
		{"candidates", http.MethodGet, "/v1/candidates", "", http.StatusOK, true},
		{"step", http.MethodPost, "/v1/step", `{"changes":{}}`, http.StatusOK, true},
		{"ingest", http.MethodPost, "/v1/ingest", insFrame(0, 0, 1, 1, 2, 0) + "\n", http.StatusOK, false},
		{"error", http.MethodGet, "/v1/step", "", http.StatusMethodNotAllowed, false},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.want, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v, body %d bytes",
				c.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if !c.pairs {
			continue
		}
		var got pairsResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(got.Pairs, wirePairs(eng.pairs)) {
			t.Fatalf("%s: decoded %d pairs, want the engine's %d", c.name, len(got.Pairs), len(eng.pairs))
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so an allocation
// count sees the handler's own allocations only.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestCandidatesReadAllocsIndependentOfAnswerSize pins the read path's
// allocations: the body is sized before it is rendered, so a 5,000-pair
// answer allocates exactly what a 10-pair one does.
func TestCandidatesReadAllocsIndependentOfAnswerSize(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/v1/candidates", nil)
	var counts []float64
	for _, n := range []int{10, 5000} {
		s := New(pairsEngine{pairs: stubPairs(n)})
		w := &discardWriter{h: http.Header{}}
		counts = append(counts, testing.AllocsPerRun(100, func() { s.handleCandidates(w, req) }))
	}
	if counts[0] != counts[1] {
		t.Fatalf("allocs per read: %v at 10 pairs, %v at 5000", counts[0], counts[1])
	}
	t.Logf("allocs per read: %v", counts[0])
}

// BenchmarkCandidatesRead measures GET /v1/candidates at the many_queries
// answer size (2,240 pairs) against a stub engine: lock, render, write.
func BenchmarkCandidatesRead(b *testing.B) {
	s := New(pairsEngine{pairs: stubPairs(2240)})
	req := httptest.NewRequest(http.MethodGet, "/v1/candidates", nil)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleCandidates(w, req)
	}
}
