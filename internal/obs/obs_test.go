package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add should panic")
		}
	}()
	NewRegistry().Counter("c", "").Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("name", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch should panic")
		}
	}()
	r.Gauge("name", "")
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name should panic")
		}
	}()
	NewRegistry().Counter("0bad name", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Fatalf("sum = %v", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 56.05",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests").Add(7)
	r.Gauge("ratio", "fraction").Set(0.25)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP reqs_total requests\n# TYPE reqs_total counter\nreqs_total 7\n",
		"# TYPE ratio gauge\nratio 0.25\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestFuncInstrumentsScrapeTime checks GaugeFunc and CounterFunc read their
// value at every scrape, render with a real TYPE, and rebind on
// re-registration instead of keeping the first function.
func TestFuncInstrumentsScrapeTime(t *testing.T) {
	r := NewRegistry()
	size := 3.0
	r.GaugeFunc("size", "structure size", func() float64 { return size })
	r.CounterFunc("work_total", "work done", func() float64 { return 2 * size })
	scrape := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, want := range []string{
		"# HELP size structure size\n# TYPE size gauge\nsize 3\n",
		"# HELP work_total work done\n# TYPE work_total counter\nwork_total 6\n",
	} {
		if out := scrape(); !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	size = 5
	if out := scrape(); !strings.Contains(out, "size 5\n") {
		t.Fatalf("gauge not recomputed at scrape:\n%s", out)
	}
	r.GaugeFunc("size", "structure size", func() float64 { return 7 })
	if out := scrape(); !strings.Contains(out, "size 7\n") || strings.Count(out, "# TYPE size ") != 1 {
		t.Fatalf("re-registration did not rebind in place:\n%s", out)
	}
	for _, mismatch := range []func(){
		func() { r.CounterFunc("size", "", func() float64 { return 0 }) },
		func() { r.Gauge("size", "") },
		func() { r.GaugeFunc("work_total", "", func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("kind mismatch should panic")
				}
			}()
			mismatch()
		}()
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) / 1000)
			}
		}()
	}
	// Concurrent scrapes must not race with writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0012)
		}
	})
}
