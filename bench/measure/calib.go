package measure

import (
	"sync"
	"time"
)

// NominalCalibMs is what one Calibrate call takes on the reference sandbox
// (2 vCPUs) in its quiet state. It only fixes the scale of the normalised
// metrics — a run on a machine at nominal speed reports real milliseconds —
// and cancels out of every comparison between two commits.
const NominalCalibMs = 60.0

// Calibrate times a frozen reference loop: a map-of-slices churn, once on
// one goroutine and once on two in parallel. The benchmark calls it between
// requests, while the server is idle, and divides a pass's clock by how much
// slower than nominal the loop ran during that pass.
//
// Why this loop: on the shared sandbox identical passes of the server differ
// by up to 1.8× for minutes at a time. A pure ALU loop does not see those
// phases at all (±2%) and a pointer chase barely does; allocation-heavy code
// with the collector running beside it slows down in step with the server
// (which allocates megabytes per step and spends a fifth of its CPU in GC),
// and the two-goroutine half also sees the phases in which the two vCPUs
// stop running in parallel. Dividing by it roughly halved the run-to-run
// spread of every timing metric on every workload. The loop is part of the
// benchmark's definition: changing it changes every baseline.
func Calibrate() time.Duration {
	start := time.Now()
	sink := churn(400_000)
	var parts [2]int
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = churn(400_000)
		}()
	}
	wg.Wait()
	d := time.Since(start)
	if sink+parts[0]+parts[1] < 0 {
		panic("unreachable: keeps the churn results live")
	}
	return d
}

func churn(n int) int {
	m := map[int][]int{}
	for i := 0; i < n; i++ {
		m[i%1000] = append(m[i%1000], i)
		if i%5000 == 0 {
			m = map[int][]int{}
		}
	}
	return len(m)
}
