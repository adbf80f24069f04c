// Command loadgen is the sustained-throughput harness for the /v1/ingest
// path: an open-loop traffic generator that registers a workload (queries +
// streams), fires NDJSON ingest batches on a fixed arrival schedule
// regardless of how fast the server answers (so server slowdown shows up as
// latency and shed rate, not as a politely slowed client), and reports
// ops/sec, latency quantiles, and the admission-control shed rate as JSON.
//
//	loadgen -target http://localhost:8080 -rate 100 -duration 20s \
//	        [-overload-factor 5] [-overload-duration 10s] \
//	        [-batch 8] [-ops 4] [-streams 4] [-queries 8] [-tenants 2] \
//	        [-graph-cap 512] [-seed 1] [-out report.json] [-expect-shed]
//
// The schedule has two phases: a sustained phase at -rate batches/sec, then
// an optional overload phase at -rate × -overload-factor that drives the
// server's admission control into shedding (CI asserts shed_rate > 0 there
// with -expect-shed).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	target := flag.String("target", "http://localhost:8080", "base URL of the serve instance")
	rate := flag.Float64("rate", 50, "sustained arrival rate in batches per second")
	duration := flag.Duration("duration", 20*time.Second, "sustained phase length")
	overloadFactor := flag.Float64("overload-factor", 5, "overload phase rate multiplier (<=1 disables the phase)")
	overloadDuration := flag.Duration("overload-duration", 10*time.Second, "overload phase length (0 disables the phase)")
	batch := flag.Int("batch", 8, "steps (timestamps) per ingest batch")
	opsPerStep := flag.Int("ops", 4, "edge operations per step")
	streams := flag.Int("streams", 4, "streams to register and spread steps across")
	queries := flag.Int("queries", 8, "query patterns to register")
	tenants := flag.Int("tenants", 1, "tenant ids to rotate through (X-Tenant header)")
	graphCap := flag.Int("graph-cap", 512, "live edges per stream before inserts are paired with deletes")
	seed := flag.Int64("seed", 1, "workload generator seed")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request client timeout")
	maxInFlight := flag.Int("max-in-flight", 512, "client-side concurrent request cap; scheduled batches beyond it are dropped and counted as errors")
	out := flag.String("out", "", "write the JSON report here ('' = stdout summary only)")
	expectShed := flag.Bool("expect-shed", false, "exit 1 unless the overload phase observed shed_rate > 0")
	flag.Parse()

	if *batch <= 0 || *opsPerStep < 0 || *streams <= 0 || *queries < 0 || *tenants <= 0 {
		log.Fatal("bad workload shape: -batch and -streams must be > 0, -ops and -queries >= 0, -tenants > 0")
	}
	client := &http.Client{Timeout: *timeout}
	gen := newWorkload(*seed, *streams, *graphCap, *opsPerStep, *batch)

	if err := gen.register(client, *target, *queries); err != nil {
		log.Fatalf("registering workload: %v", err)
	}

	phases := []phaseSpec{{name: "sustain", rate: *rate, length: *duration}}
	if *overloadFactor > 1 && *overloadDuration > 0 {
		phases = append(phases, phaseSpec{name: "overload", rate: *rate * *overloadFactor, length: *overloadDuration})
	}

	rep := &Report{
		Target:    *target,
		GoVersion: runtime.Version(),
		Config: map[string]string{
			"rate":     fmt.Sprint(*rate),
			"batch":    strconv.Itoa(*batch),
			"ops":      strconv.Itoa(*opsPerStep),
			"streams":  strconv.Itoa(*streams),
			"queries":  strconv.Itoa(*queries),
			"tenants":  strconv.Itoa(*tenants),
			"seed":     strconv.FormatInt(*seed, 10),
			"graphCap": strconv.Itoa(*graphCap),
		},
	}
	var all []sample
	totalStart := time.Now()
	for _, ph := range phases {
		samples := runPhase(client, *target, gen, ph, *tenants, *maxInFlight)
		rep.Phases = append(rep.Phases, summarize(ph.name, ph.rate, ph.length, samples))
		all = append(all, samples...)
	}
	rep.Total = mergePhases(rep.Phases, all, time.Since(totalStart))

	printSummary(os.Stderr, rep)
	if *out != "" {
		if err := writeJSONFile(*out, rep); err != nil {
			log.Fatalf("writing report: %v", err)
		}
		log.Printf("report written to %s", *out)
	}

	if rep.Total.OK == 0 {
		log.Fatal("no batch succeeded — is the server up and the workload valid?")
	}
	if *expectShed {
		shed := false
		for _, p := range rep.Phases {
			if p.Name == "overload" && p.Shed > 0 {
				shed = true
			}
		}
		if !shed {
			log.Fatal("-expect-shed: overload phase saw no 429s; admission control never engaged")
		}
	}
}

type phaseSpec struct {
	name   string
	rate   float64 // batches per second
	length time.Duration
}

// runPhase fires batches on an open-loop schedule: one dispatch every
// 1/rate seconds from phase start, regardless of completions. Bodies are
// generated on the scheduling goroutine (the generator is single-threaded
// state); the HTTP exchange runs in a goroutine per dispatch, capped by
// maxInFlight — beyond the cap the batch is dropped and counted locally,
// never blocking the schedule (that would close the loop). A collector
// goroutine drains results for the whole phase, so request goroutines can
// always hand off their sample and the scheduler never waits on the channel
// — an overload phase can dispatch far more batches than the channel could
// buffer.
func runPhase(client *http.Client, target string, gen *workload, ph phaseSpec, tenants, maxInFlight int) []sample {
	interval := time.Duration(float64(time.Second) / ph.rate)
	results := make(chan sample, maxInFlight)
	slots := make(chan struct{}, maxInFlight)
	var samples []sample
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for s := range results {
			samples = append(samples, s)
		}
	}()
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(ph.length)
	dispatched, dropped := 0, 0
	for next := start; next.Before(end); next = next.Add(interval) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		body := gen.nextBatch()
		tenant := "t" + strconv.Itoa(dispatched%tenants)
		dispatched++
		select {
		case slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-slots }()
				results <- send(client, target, tenant, body)
			}()
		default:
			dropped++ // client saturated: dropped
		}
	}
	wg.Wait()
	close(results)
	<-collected
	for i := 0; i < dropped; i++ {
		samples = append(samples, sample{status: -1})
	}
	return samples
}

// send posts one ingest batch and parses the outcome.
func send(client *http.Client, target, tenant string, body []byte) sample {
	req, err := http.NewRequest(http.MethodPost, target+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return sample{status: 0}
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Tenant", tenant)
	start := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(start)
	if err != nil {
		return sample{status: 0, latency: lat}
	}
	defer resp.Body.Close()
	s := sample{status: resp.StatusCode, latency: lat}
	if resp.StatusCode == http.StatusOK {
		var body struct {
			Steps int `json:"steps"`
			Ops   int `json:"ops"`
			Pairs int `json:"pairs"`
		}
		if json.NewDecoder(resp.Body).Decode(&body) == nil {
			s.steps, s.ops, s.pairs = body.Steps, body.Ops, body.Pairs
		}
	} else {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	}
	return s
}

// workload generates valid ingest batches: every insert touches a fresh
// vertex pair or extends a recent vertex, every delete retires a
// previously inserted live edge, and vertex labels are a pure function of
// the vertex id — so no operation can ever be rejected by the engine's
// validation, no matter the interleaving.
type workload struct {
	rng        *rand.Rand
	streams    []streamState
	graphCap   int
	opsPerStep int
	batchSteps int
	step       int // rotates the stream assignment
	buf        bytes.Buffer
}

type streamState struct {
	id         int   // server-assigned stream id
	nextVertex int32 // fresh vertex ids count up from here
	live       [][2]int32
}

const labelSpace = 16

func vertexLabel(v int32) int { return int(uint32(v) % labelSpace) }

func newWorkload(seed int64, streams, graphCap, opsPerStep, batchSteps int) *workload {
	w := &workload{
		rng:        rand.New(rand.NewSource(seed)),
		streams:    make([]streamState, streams),
		graphCap:   graphCap,
		opsPerStep: opsPerStep,
		batchSteps: batchSteps,
	}
	return w
}

// register creates the query patterns and streams on the server. Queries
// are short label paths (the shape the NPV filters index); streams start
// with a single seed edge.
func (w *workload) register(client *http.Client, target string, queries int) error {
	for q := 0; q < queries; q++ {
		n := 2 + q%3 // paths of 2..4 vertices
		var vertices []map[string]int
		var edges []map[string]int
		for i := 0; i < n; i++ {
			vertices = append(vertices, map[string]int{"id": i, "label": (q + i) % labelSpace})
			if i > 0 {
				edges = append(edges, map[string]int{"u": i - 1, "v": i, "label": (q + i) % labelSpace})
			}
		}
		if _, err := postJSON(client, target+"/v1/queries",
			map[string]any{"graph": map[string]any{"vertices": vertices, "edges": edges}}); err != nil {
			return fmt.Errorf("query %d: %w", q, err)
		}
	}
	for i := range w.streams {
		st := &w.streams[i]
		st.nextVertex = 2
		st.live = append(st.live, [2]int32{0, 1})
		body := map[string]any{"graph": map[string]any{
			"vertices": []map[string]int{
				{"id": 0, "label": vertexLabel(0)},
				{"id": 1, "label": vertexLabel(1)},
			},
			"edges": []map[string]int{{"u": 0, "v": 1, "label": 0}},
		}}
		resp, err := postJSON(client, target+"/v1/streams", body)
		if err != nil {
			return fmt.Errorf("stream %d: %w", i, err)
		}
		st.id = resp
	}
	return nil
}

func postJSON(client *http.Client, url string, body any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		ID    int    `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusCreated {
		return 0, fmt.Errorf("%s: %d %s", url, resp.StatusCode, out.Error)
	}
	return out.ID, nil
}

// nextBatch renders one NDJSON body of batchSteps frames. Each step
// addresses one stream (round-robin), mixing fresh-edge inserts with
// deletes of the oldest live edge once the stream is at graph-cap.
func (w *workload) nextBatch() []byte {
	w.buf.Reset()
	for s := 0; s < w.batchSteps; s++ {
		st := &w.streams[w.step%len(w.streams)]
		w.step++
		fmt.Fprintf(&w.buf, `{"changes":[{"stream":%d,"ops":[`, st.id)
		for o := 0; o < w.opsPerStep; o++ {
			if o > 0 {
				w.buf.WriteByte(',')
			}
			if len(st.live) >= w.graphCap {
				e := st.live[0]
				st.live = st.live[1:]
				fmt.Fprintf(&w.buf, `{"op":"del","u":%d,"v":%d}`, e[0], e[1])
				continue
			}
			// Chain onto a recent vertex half the time, fresh pair otherwise.
			var u int32
			if w.rng.Intn(2) == 0 && st.nextVertex > 2 {
				u = st.nextVertex - 1 - int32(w.rng.Intn(2))
			} else {
				u = st.nextVertex
				st.nextVertex++
			}
			v := st.nextVertex
			st.nextVertex++
			st.live = append(st.live, [2]int32{u, v})
			fmt.Fprintf(&w.buf, `{"op":"ins","u":%d,"v":%d,"ul":%d,"vl":%d,"el":%d}`,
				u, v, vertexLabel(u), vertexLabel(v), (vertexLabel(u)+vertexLabel(v))%labelSpace)
		}
		w.buf.WriteString("]}]}\n")
	}
	out := make([]byte, w.buf.Len())
	copy(out, w.buf.Bytes())
	return out
}
