package bench

// Allocator churn microbenchmark: steady-state free/alloc cycling of the
// internal/rmm free-stack allocator at a fixed occupancy — the allocator's
// cost per operation. Every operation pays one bitmap-bit PWB + PSync, so
// the points add the allocator's metadata work (O(1) pop/push at any
// occupancy, own frees reused before shared state) on top of that persist
// pair. Points land in BENCH_pmem.json as "alloc-churn-freestack@<occupancy>".

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/pmem"
	"repro/internal/rmm"
)

const (
	// allocChurnBlocks is the arena size: 4096 four-word blocks, split
	// into 8 chunks of 512.
	allocChurnBlocks     = 4096
	allocChurnBlockWords = 4
	allocChurnChunks     = 8
)

// allocChurnOccupancies are the live-block fractions (percent) each churn
// point holds in steady state: a roomy anchor, the paper-style working
// range, and a near-full arena.
func allocChurnOccupancies() []int { return []int{50, 75, 90, 98} }

// AllocChurnReport measures only the allocator churn family — the quick
// rmm churn smoke behind `make bench-alloc`. The points use the same schema as the
// full substrate report, so the output drops into BENCH_pmem.json
// tooling unchanged.
func AllocChurnReport(goroutines []int, opsPerPoint int) SubstrateReport {
	if len(goroutines) == 0 {
		goroutines = []int{1, 4}
	}
	if opsPerPoint <= 0 {
		opsPerPoint = 2_000_000
	}
	return SubstrateReport{
		SpinUnitNs: pmem.CalibrateSpin(),
		Points:     allocChurnPoints(goroutines, opsPerPoint),
	}
}

// churnRounds is how many full sweeps of the churn matrix run; each point
// reports its fastest trial across the sweeps.
const churnRounds = 7

// allocChurnPoints runs the full churn matrix: every occupancy and
// concurrency level. Iteration counts start from the commit-path budget —
// churn operations cost a persist pair each, like a structure op —
// doubled so each timed trial is long enough to dilute episodic
// multi-millisecond noise spikes, and a cell's trials are spread across
// whole-matrix sweeps visited in a shuffled order, so a storm outlasting
// one trial still leaves the cell's other sweeps clean.
func allocChurnPoints(goroutines []int, opsPerPoint int) []SubstratePoint {
	iters := 2 * commitPathOps(opsPerPoint)
	type cell struct{ occ, g int }
	var cells []cell
	for _, occ := range allocChurnOccupancies() {
		for _, g := range goroutines {
			cells = append(cells, cell{occ, g})
		}
	}
	best := make([]SubstratePoint, len(cells))
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(42))
	for r := 0; r < churnRounds; r++ {
		if r > 0 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, i := range order {
			pt := runAllocChurn(cells[i].occ, cells[i].g, iters)
			if r == 0 || pt.NsPerOp < best[i].NsPerOp {
				best[i] = pt
			}
		}
	}
	return best
}

// runAllocChurn fills a fresh arena to the target occupancy, then times g
// goroutines each cycling free-one/alloc-one over their own live set, so
// the global occupancy is pinned for the whole measurement. The fill is
// excluded from both the clock and the counters.
func runAllocChurn(occPct, g, iters int) SubstratePoint {
	p := pmem.New(pmem.Config{Mode: pmem.ModeFast, CapacityWords: 1 << 16, MaxThreads: g + 1})
	a := rmm.NewGrowable(p, allocChurnBlockWords, allocChurnBlocks/allocChurnChunks, allocChurnChunks, 0)

	target := allocChurnBlocks * occPct / 100
	handles := make([]*rmm.Handle, g)
	live := make([][]pmem.Addr, g)
	for t := 0; t < g; t++ {
		handles[t] = a.Handle(p.NewThread(t))
		share := target / g
		if t == 0 {
			share += target - share*g
		}
		live[t] = make([]pmem.Addr, share)
	}
	// Fill through a single handle: any handle may free any block, so the
	// timed workers can churn blocks they did not allocate. A concurrent
	// fill would strand up to a refill cache of free blocks per handle,
	// which at high occupancy and goroutine counts exceeds the arena's
	// slack and spuriously exhausts it.
	for t := 0; t < g; t++ {
		for i := range live[t] {
			if live[t][i] = handles[0].Alloc(); live[t][i] == pmem.Null {
				panic("bench: churn fill exhausted the arena")
			}
		}
	}

	per := iters / g
	total := 2 * per * g // each iteration is one free plus one alloc
	base := p.Snapshot()
	rngs := make([]*rand.Rand, g)
	for t := range rngs {
		rngs[t] = rand.New(rand.NewSource(int64(9000 + t)))
	}
	// The timed phase runs in segments, and the point reports the fastest
	// one. Two layers defend the point against background load on a
	// shared single-core host: each segment is timed
	// on the process CPU clock where available (preemption gaps cost this
	// process no CPU; on an idle core CPU and wall time coincide), and the
	// per-segment minimum discards the segments whose cache and branch
	// state a context switch wrecked. Handles, live sets and rngs persist
	// across segments, so the workload is one continuous churn.
	const churnSegments = 16
	bestNs := 0.0
	done := 0
	for s := 0; s < churnSegments; s++ {
		end := (s + 1) * per / churnSegments
		n := end - done
		if n == 0 {
			continue
		}
		var wg sync.WaitGroup
		cpu0, haveCPU := cpuTimeNow()
		start := time.Now()
		for t := 0; t < g; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				h, set, rng := handles[t], live[t], rngs[t]
				for i := 0; i < n; i++ {
					j := rng.Intn(len(set))
					if err := h.Free(set[j]); err != nil {
						panic(err)
					}
					if set[j] = h.Alloc(); set[j] == pmem.Null {
						panic("bench: churn alloc failed at steady-state occupancy")
					}
				}
			}(t)
		}
		wg.Wait()
		elapsed := time.Since(start).Nanoseconds()
		if cpu1, ok := cpuTimeNow(); ok && haveCPU {
			elapsed = cpu1 - cpu0
		}
		if ns := float64(elapsed) / float64(2*n*g); bestNs == 0 || ns < bestNs {
			bestNs = ns
		}
		done = end
	}
	name := "alloc-churn-freestack@" + strconv.Itoa(occPct)
	return statPoint(name, "fast", g, bestNs, p.Snapshot().Sub(base), total)
}
