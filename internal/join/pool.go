package join

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nntstream/internal/obs"
)

// evalPool fans independent evaluation tasks out over a bounded set of
// goroutines. It is the parallel substrate behind the vector joins'
// ApplySteps, which dispatches it once per batch of steps, one task per
// changed stream: every task owns exactly one result slot, so the fan-out is
// deterministic — the merged output is bit-identical to running the tasks
// sequentially in slot order, regardless of scheduling (the mapdeterm
// discipline extended to goroutine joins).
//
// The zero value is sequential (one worker). Filters resize it through
// core.ParallelFilter's SetWorkers.
type evalPool struct {
	// workers bounds the goroutines per batch; 0 and 1 both mean
	// sequential (run inline on the caller's goroutine).
	workers int

	// Pool telemetry, exported by the owning filter's RegisterMetrics.
	batches   atomic.Int64 // parallel dispatches: one per batch of steps
	tasks     atomic.Int64 // tasks run across parallel batches
	waitNanos atomic.Int64 // summed submit→start latency across tasks
	maxBatch  atomic.Int64 // largest task count handed to one batch
}

// setWorkers bounds the pool; n <= 0 sizes it to runtime.GOMAXPROCS.
func (p *evalPool) setWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p.workers = n
}

// size reports the configured bound (minimum 1).
func (p *evalPool) size() int {
	if p.workers < 1 {
		return 1
	}
	return p.workers
}

// run executes fn(0..n-1). With more than one worker and more than one
// task, tasks are pulled off a shared atomic cursor by min(workers, n)
// goroutines — the caller's and one fewer spawned ones; otherwise they run
// inline. fn must write only to state owned by task i (its result slot
// and, for per-stream tasks, that stream's state) — run provides the
// happens-before edge between all tasks and the caller via the WaitGroup
// join. A task that panics stops the pulling: every puller recovers, and
// once all have returned run panics on the caller's goroutine with the
// first value, where the caller's own recovery (net/http's per-request
// one, or a deferred unlock) can see it. A spawned goroutine that panicked
// would end the process instead.
//
//nnt:nonblocking the join waits only for the batch's own compute-bound tasks, which by contract take no locks and do no I/O
func (p *evalPool) run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := p.size()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.batches.Add(1)
	p.tasks.Add(int64(n))
	for {
		prev := p.maxBatch.Load()
		if int64(n) <= prev || p.maxBatch.CompareAndSwap(prev, int64(n)) {
			break
		}
	}
	start := time.Now()
	var next atomic.Int64
	var first sync.Once
	var panicked any
	// Waits are summed per goroutine and published once, so tasks do not
	// contend on the shared counter.
	pull := func() {
		var wait time.Duration
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(n))
				first.Do(func() { panicked = r })
			}
			p.waitNanos.Add(wait.Nanoseconds())
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			wait += time.Since(start)
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go func() {
			defer wg.Done()
			pull()
		}()
	}
	pull()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// registerMetrics registers the pool's series under the shared
// nntstream_join_pool_ prefix. The counters are atomics; only the width,
// which SetWorkers writes, is read under the engine's lock.
func (p *evalPool) registerMetrics(r *obs.Registry, locked func(func() float64) func() float64) {
	r.GaugeFunc("nntstream_join_pool_workers",
		"Evaluation pool width (1 = sequential).",
		locked(func() float64 { return float64(p.size()) }))
	r.CounterFunc("nntstream_join_pool_parallel_batches_total",
		"Step batches fanned out over more than one worker: one per ingest request or single step that changes two or more streams.",
		func() float64 { return float64(p.batches.Load()) })
	r.CounterFunc("nntstream_join_pool_parallel_tasks_total",
		"Tasks run inside parallel batches.",
		func() float64 { return float64(p.tasks.Load()) })
	r.CounterFunc("nntstream_join_pool_task_wait_seconds_total",
		"Submit-to-start latency summed over parallel tasks, in seconds.",
		func() float64 { return float64(p.waitNanos.Load()) / 1e9 })
	r.GaugeFunc("nntstream_join_pool_max_batch_tasks",
		"Largest task count handed to one parallel batch.",
		func() float64 { return float64(p.maxBatch.Load()) })
}
