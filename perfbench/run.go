package main

import (
	"fmt"
	"sync"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/recovery"
)

// Thread ids: clients use 1..clients, the set-up/verification thread
// setupTID, and the recovery engine's workers recoveryBase onwards.
const (
	setupTID        = clients + 1
	recoveryBase    = clients + 2
	recoveryWorkers = 2
	maxThreads      = recoveryBase + recoveryWorkers
	rootSlot        = 0
)

// storeConfig derives the store geometry from the workload's key space:
// shard and bucket counts stay at the library defaults; value slots are
// four times the expected keys per shard (deletes leave tombstones), and
// each shard's allocator can grow to twice its expected live blocks.
func storeConfig(w workload) kvstore.Config {
	const shards, chunkBlocks = 16, 64
	perShard := (w.keys + shards - 1) / shards
	return kvstore.Config{
		SlotsPerShard: ceilPow2(4 * perShard),
		MaxThreads:    maxThreads,
		RootSlot:      rootSlot,
		MaxChunks:     max(8, ceilPow2(2*perShard/chunkBlocks)),
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// options are a run's settings.
type options struct {
	w       workload
	seed    uint64
	seconds float64 // measured time, shared evenly by the stores
	trace   bool
	// stores is how many independently built stores a run measures in
	// turn. Each has its own set-up (setup_s is their median), its own
	// request streams and an equal share of the measured time; a single
	// store's speed depends on where its memory landed, and the median over
	// windows of several stores does not.
	stores int
	// restarts is how many quiescent restarts each ModeFast store measures.
	restarts int
	// winNs is the width of a latency/throughput window of a ModeFast run.
	winNs int64
	// warmupNs is run, checked and discarded before measuring each store.
	warmupNs int64
	// crashAccesses is the mean number of pool accesses between armed
	// crashes of the crash-recover workload; each round draws its count
	// uniformly from ±50% of it.
	crashAccesses int
}

// storeSeconds is the measured time of one store.
func (o options) storeSeconds() float64 { return o.seconds / float64(o.stores) }

// bench is the state of one store of a run, and (see combine) the
// run's totals over all its stores.
type bench struct {
	opt   options
	pool  *pmem.Pool
	store *kvstore.Store
	or    *oracle
	cl    [clients]*client
	eng   *recovery.Engine

	setupS []float64
	// peakRSS is the highest resident set (MiB) read after a store's
	// measured phase.
	peakRSS float64
	// Totals combine fills from the stores' clients and oracles.
	casTried, casOK   int64
	attempted, failed int64
	errs              []string

	// Counter totals of the measured phase: persistence instructions,
	// pool words allocated and per-shard completed operations.
	pm     pmem.Stats
	words  int64
	shards []uint64
	ops    int64
	wins   []window

	// cycles are the measured recoveries: crashes or quiescent restarts.
	cycles []cycleStats
	// seg holds a traced run's untraced [0] and traced [1] segment totals.
	seg [2]struct{ ops, ns int64 }

	// ctl traces the run's own goroutine (recoveries, checks, probes);
	// tracers lists every tracer for the spans file. Both nil/empty when
	// untraced.
	ctl     *tracer
	tracers []*tracer
}

// A traced run traces one in traceEvery of its ModeFast segments (each
// traceSegNs long) or crash-recover traffic rounds, and leaves the rest
// untraced. Both kinds interleave over the whole run, so their throughput
// ratio is the tracing overhead, and the spans file stays near a million
// spans even on the fastest workload.
const (
	traceSegNs = int64(100e6)
	traceEvery = 16
)

// tracedSeg reports whether measured segment or round i (from 0) of a
// traced run is traced.
func tracedSeg(i int) bool { return i%traceEvery == 0 }

// newBench prepares store i of a run; its requests derive from the run
// seed and i.
func newBench(opt options, i int) *bench {
	opt.seed = splitmix64(opt.seed + uint64(i))
	return &bench{
		opt:    opt,
		eng:    recovery.New(recovery.Config{Workers: recoveryWorkers, BaseTID: recoveryBase}),
		pm:     pmem.Stats{PWBsBySite: map[string]uint64{}},
		shards: make([]uint64, 16),
	}
}

// perOp divides a measured-phase total by the requests it served.
func (b *bench) perOp(total uint64) float64 { return float64(total) / float64(max(b.ops, 1)) }

func (b *bench) mode() pmem.Mode {
	if b.opt.w.strict {
		return pmem.ModeStrict
	}
	return pmem.ModeFast
}

// setup builds the store's pool (capWords words), the store and the
// preload, timed, and readies the clients.
func (b *bench) setup(capWords int) error {
	keys := preloadKeys(b.opt.w, b.opt.seed)
	t0 := now()
	b.pool = pmem.New(pmem.Config{Mode: b.mode(), CapacityWords: capWords, MaxThreads: maxThreads})
	s, err := kvstore.New(b.pool, storeConfig(b.opt.w))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	h := s.Handle(b.pool.NewThread(setupTID))
	for _, k := range keys {
		if _, err := h.Put(k, preloadValue(k), kvstore.NoExpiry); err != nil {
			return fmt.Errorf("preload Put(%d): %w", k, err)
		}
	}
	h.Flush()
	b.setupS = append(b.setupS, float64(now()-t0)/1e9)
	b.store = s
	b.or = newOracle(b.opt.w, keys)
	for c := range b.cl {
		cl := &client{
			id: c, tid: c + 1, or: b.or,
			ops:            newOpStream(b.opt.w, b.opt.seed, c),
			explicitInvoke: b.opt.w.strict,
		}
		cl.attach(b.pool, b.store)
		b.cl[c] = cl
	}
	return nil
}

func (b *bench) newTracer() *tracer {
	t := &tracer{}
	b.tracers = append(b.tracers, t)
	return t
}

// drive runs every client concurrently until each body returns, tracing
// into fresh tracers when traced. Each body files samples into its own
// window slice.
func (b *bench) drive(traced bool, body func(cl *client, wins []window), nWin int) ([]window, int64) {
	per := make([][]window, clients)
	var wg sync.WaitGroup
	start := now()
	for c, cl := range b.cl {
		per[c] = make([]window, nWin)
		cl.tr = nil
		if traced {
			cl.tr = b.newTracer()
		}
		wg.Add(1)
		go func(cl *client, wins []window) {
			defer wg.Done()
			cl.guard(b.pool, func() { body(cl, wins) })
		}(cl, per[c])
	}
	wg.Wait()
	wall := now() - start
	wins := make([]window, nWin)
	for wi := range wins {
		for c := range per {
			wins[wi].merge(&per[c][wi])
		}
	}
	for _, cl := range b.cl {
		cl.tr = nil
	}
	return wins, wall
}

// file records one completed request's latency in window w.
func file(w *window, kind opKind, d int64) {
	w.ops++
	if kind == opGet {
		w.read.add(d)
	} else {
		w.write.add(d)
	}
}

// segment runs the clients closed-loop for dur, filing each request under
// the winNs-wide window of its return time. Requests returning after dur
// are checked but not timed.
func (b *bench) segment(dur, winNs int64, traced bool) ([]window, int64) {
	nWin := int((dur + winNs - 1) / winNs)
	start := now()
	end := start + dur
	wins, wall := b.drive(traced, func(cl *client, wins []window) {
		for {
			kind, t0, t1 := cl.step()
			if t1 >= end {
				return
			}
			file(&wins[(t1-start)/winNs], kind, t1-t0)
		}
	}, nWin)
	for wi := range wins {
		wins[wi].busyNs = min(winNs, dur-int64(wi)*winNs)
	}
	return wins, wall
}

// aborted reports a client that stopped on something other than a
// simulated crash; the pool is then unusable and the run fails.
func (b *bench) aborted() error {
	for _, cl := range b.cl {
		if cl.panicked != nil {
			return fmt.Errorf("client %d stopped: %v", cl.id, cl.panicked)
		}
	}
	return nil
}

// interval is a [lo, hi) span of the run clock; lo < 0 marks "none".
type interval struct{ lo, hi int64 }

func (iv interval) ns() int64 { return iv.hi - iv.lo }

// resumeClients re-attaches every client to b.store and, concurrently,
// resolves its interrupted request (if one was invoked) and completes its
// first new request. It returns each client's resolve interval (lo < 0
// when there was nothing to resolve) and first-request interval.
func (b *bench) resumeClients() (resolve, first []interval) {
	resolve = make([]interval, clients)
	first = make([]interval, clients)
	var wg sync.WaitGroup
	for c, cl := range b.cl {
		cl.attach(b.pool, b.store)
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			cl.guard(b.pool, func() {
				resolve[c] = interval{-1, -1}
				if cl.pending && cl.invoked {
					t0 := now()
					res, err := cl.resolve()
					t1 := now()
					cl.complete(res, err)
					resolve[c] = interval{t0, t1}
				}
				cl.prepare()
				t0 := now()
				res, err := cl.call()
				t1 := now()
				cl.complete(res, err)
				first[c] = interval{t0, t1}
			})
		}(c, cl)
	}
	wg.Wait()
	return resolve, first
}
