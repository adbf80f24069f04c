// Package drive plays a generated workload against anything that answers
// HTTP-shaped requests — a socket to a spawned serve (bench/e2e) or an
// in-process handler (bench/layers) — validates every answer, and records
// what it measured. It knows the public API only.
package drive

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"nntstream/bench/gen"
	"nntstream/bench/measure"
)

// Do sends one request and returns the status and the whole response body.
// The body may alias a buffer that the next call overwrites.
type Do func(method, path string, body []byte) (status int, resp []byte, err error)

// Pair is one reported (stream, query) candidate, with the query named by
// its registration index so that servers that registered a different
// history of queries can be compared.
type Pair struct{ Stream, Query int }

// Session drives one server over one Do and keeps the mapping between
// server query IDs and registration indices.
type Session struct {
	do       Do
	queryIDs []int       // registration index → server ID
	regIndex map[int]int // server ID → registration index
}

// NewSession wraps a transport.
func NewSession(do Do) *Session { return &Session{do: do, regIndex: map[int]int{}} }

func (s *Session) register(path string, body []byte) (int, error) {
	status, resp, err := s.do("POST", path, body)
	if err != nil {
		return 0, err
	}
	var id struct {
		ID *int `json:"id"`
	}
	if status != 201 || json.Unmarshal(resp, &id) != nil || id.ID == nil {
		return 0, fmt.Errorf("POST %s: status %d: %s", path, status, resp)
	}
	return *id.ID, nil
}

// AddQuery registers the next query.
func (s *Session) AddQuery(body []byte) error {
	id, err := s.register("/v1/queries", body)
	if err != nil {
		return err
	}
	s.regIndex[id] = len(s.queryIDs)
	s.queryIDs = append(s.queryIDs, id)
	return nil
}

// AddStream registers a stream and insists on the ID the pre-rendered
// ingest frames assume.
func (s *Session) AddStream(body []byte, want int) error {
	id, err := s.register("/v1/streams", body)
	if err != nil {
		return err
	}
	if id != want {
		return fmt.Errorf("stream registered as %d, frames assume %d", id, want)
	}
	return nil
}

// Candidates fetches and decodes GET /v1/candidates, sorted by (stream,
// query registration index).
func (s *Session) Candidates() ([]Pair, error) {
	status, resp, err := s.do("GET", "/v1/candidates", nil)
	if err != nil {
		return nil, err
	}
	var r struct {
		Pairs []struct {
			Stream int `json:"stream"`
			Query  int `json:"query"`
		} `json:"pairs"`
	}
	if status != 200 || json.Unmarshal(resp, &r) != nil {
		return nil, fmt.Errorf("GET /v1/candidates: status %d: %.200s", status, resp)
	}
	out := make([]Pair, len(r.Pairs))
	for i, p := range r.Pairs {
		reg, ok := s.regIndex[p.Query]
		if !ok {
			return nil, fmt.Errorf("GET /v1/candidates: unknown query id %d", p.Query)
		}
		out[i] = Pair{p.Stream, reg}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stream != out[j].Stream {
			return out[i].Stream < out[j].Stream
		}
		return out[i].Query < out[j].Query
	})
	return out, nil
}

// Run sends one scripted request, checks the answer, and records into p the
// latency from send to the whole answer received (answer parsing excluded).
func (s *Session) Run(req gen.Request, p *measure.Pass) error {
	switch req.Kind {
	case gen.Ingest:
		start := time.Now()
		status, resp, err := s.do("POST", "/v1/ingest", req.Body)
		lat := time.Since(start)
		if err != nil {
			return err
		}
		var r struct {
			Steps int   `json:"steps"`
			Pairs int64 `json:"pairs"`
		}
		if status != 200 || json.Unmarshal(resp, &r) != nil || r.Steps != req.Steps {
			return fmt.Errorf("POST /v1/ingest: status %d, want %d steps: %s", status, req.Steps, resp)
		}
		p.IngestMs = append(p.IngestMs, ms(lat))
		p.Steps += req.Steps
		p.Ops += req.Ops
		p.Pairs += r.Pairs
		p.IngestBytes += int64(len(req.Body))
	case gen.Read:
		start := time.Now()
		status, resp, err := s.do("GET", "/v1/candidates", nil)
		lat := time.Since(start)
		if err != nil || status != 200 {
			return fmt.Errorf("GET /v1/candidates: status %d: %v", status, err)
		}
		p.ReadMs = append(p.ReadMs, ms(lat))
		p.ReadBytes += int64(len(resp))
	case gen.AddQuery:
		start := time.Now()
		if err := s.AddQuery(req.Body); err != nil {
			return err
		}
		p.AddQueryMs = append(p.AddQueryMs, ms(time.Since(start)))
	case gen.RemoveQuery:
		path := "/v1/queries/" + strconv.Itoa(s.queryIDs[req.Query])
		start := time.Now()
		status, resp, err := s.do("DELETE", path, nil)
		lat := time.Since(start)
		if err != nil || status != 200 {
			return fmt.Errorf("DELETE %s: status %d: %s %v", path, status, resp, err)
		}
		p.RemoveQueryMs = append(p.RemoveQueryMs, ms(lat))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// SetUpTimes splits set-up by stage.
type SetUpTimes struct{ QueriesS, StreamsS float64 }

// SetUp registers the workload's queries and streams and plays its warm-up
// requests.
func (s *Session) SetUp(w *gen.Workload) (t SetUpTimes, err error) {
	start := time.Now()
	lap := func() float64 {
		d := time.Since(start).Seconds()
		start = time.Now()
		return d
	}
	for _, q := range w.Queries {
		if err := s.AddQuery(q); err != nil {
			return t, err
		}
	}
	t.QueriesS = lap()
	for i, g := range w.Streams {
		if err := s.AddStream(g, i); err != nil {
			return t, err
		}
	}
	t.StreamsS = lap()
	var warm measure.Pass
	for _, req := range w.Warmup {
		if err := s.Run(req, &warm); err != nil {
			return t, fmt.Errorf("warm-up: %w", err)
		}
	}
	return t, nil
}
