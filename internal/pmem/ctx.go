package pmem

import (
	"fmt"
	"sync/atomic"
)

// wbEntry is one scheduled (not yet completed) write-back in ModeStrict.
// It captures the content of a cache line at PWB time; per the persistency
// model, the write-back completes somewhere between the PWB and the next
// PSync, and the captured versions let the commit respect per-location
// program order.
type wbEntry struct {
	line  int
	fence bool // a fence marker rather than a write-back
	vals  [LineWords]uint64
	vers  [LineWords]uint64
}

// ThreadCtx is a per-thread handle on a Pool. All persistent-memory
// operations of a simulated thread go through its ThreadCtx; a ThreadCtx
// must not be used concurrently from multiple goroutines.
type ThreadCtx struct {
	pool *Pool
	tid  int

	// Owner-only state, never touched by other threads.
	pending    []wbEntry // ModeStrict: scheduled, un-synced write-backs
	epochStart int       // index in pending of the current fence epoch

	localOff, localEnd int // per-thread allocation chunk, in words

	siteGen  uint64   // generation of the cached site-enabled bitmask
	siteBits []uint64 // cached copy of the pool's enabled bitmask

	// Telemetry state, owner-only. sink is the generation-cached copy of
	// the pool's telemetry sink (nil when detached — the steady state,
	// checked with one plain load per persistence instruction). The other
	// fields accumulate per-site write-back counts between PSyncs for
	// stall attribution; they are touched only while a sink is attached.
	sink        TelemetrySink
	telePend    []uint64    // per-site PWBs since the last PSync
	teleTouched []Site      // sites with a non-zero telePend entry
	teleBuf     []SiteStall // reusable argument buffer for TelemetryPSync

	// Write-combining batch state, owner-only (see batch.go). batchDepth
	// counts BeginBatch nesting (0 = no open epoch); batchOps is the open
	// epoch's op bound; wcLines holds the distinct lines deferred in it;
	// wcOps the deferred group psyncs; autoBatch is the generation-cached
	// copy of the pool's ambient batch policy (0 = none).
	batchDepth int
	batchOps   int
	wcLines    []int
	wcOps      int
	autoBatch  int
	autoOpened bool // the open epoch came from the ambient policy

	// Flush-avoidance state, owner-only (see flushavoid.go). faOn is the
	// generation-cached "pool flush avoidance is on AND the pool is
	// ModeFast" flag; memo is the direct-mapped recently-flushed-line
	// cache (entry encoding: line index + 1, zero = empty).
	faOn bool
	memo [memoSlots]uint32

	// Counters. The owner updates each with one uncontended atomic add
	// (its line stays exclusive in the owner's cache); Stats snapshots
	// read them while the run is in flight, hence the atomics. The pad
	// keeps another heap object's hot fields off the counters' lines.
	_            [64]byte
	pwbPerSite   []atomic.Uint64 // header swapped only by the owner, see countPWB
	psyncs       atomic.Uint64
	pfences      atomic.Uint64
	spun         atomic.Uint64 // total simulated spin units charged
	pwbsDeferred atomic.Uint64 // write-backs recorded into the WC buffer
	pwbsMerged   atomic.Uint64 // of those, duplicates merged (charges eliminated)
	psyncsMerged atomic.Uint64 // psyncs absorbed into a group sync
	batchDrains  atomic.Uint64 // write-combining drains executed
	pwbsElided   atomic.Uint64 // flush-avoidance: charges skipped (clean word / memo hit)
	pwbsExecuted atomic.Uint64 // ModeFast write-back charges that actually spun
	_            [64]byte
}

// NewThread creates the ThreadCtx for thread id tid. Ids must be unique and
// in [0, MaxThreads); reusing an id after a crash (re-creating the thread)
// is allowed once the previous ctx is abandoned.
func (p *Pool) NewThread(tid int) *ThreadCtx {
	if tid < 0 {
		panic(fmt.Sprintf("pmem: negative thread id %d", tid))
	}
	ctx := &ThreadCtx{pool: p, tid: tid}
	p.mu.Lock()
	ctx.pwbPerSite = make([]atomic.Uint64, len(p.sites))
	ctx.adoptLocked()
	p.ctxs = append(p.ctxs, ctx)
	p.mu.Unlock()
	return ctx
}

// NewThreads creates n thread contexts with consecutive ids base..base+n-1,
// for callers that fan recovery work across a worker pool and need one
// context per worker (a ThreadCtx is single-goroutine by contract).
func (p *Pool) NewThreads(base, n int) []*ThreadCtx {
	if n < 0 {
		panic(fmt.Sprintf("pmem: negative thread count %d", n))
	}
	ctxs := make([]*ThreadCtx, n)
	for i := range ctxs {
		ctxs[i] = p.NewThread(base + i)
	}
	return ctxs
}

// TID returns the thread id of this context.
func (ctx *ThreadCtx) TID() int { return ctx.tid }

// SpunUnits returns the total simulated persistence latency (ModeFast spin
// units) charged to this thread so far. The workload engine reads the
// delta across one operation to derive that operation's modeled service
// time; charges spin on the issuing thread only, so the delta is exact for
// a context driven from a single goroutine.
func (ctx *ThreadCtx) SpunUnits() uint64 { return ctx.spun.Load() }

// Pool returns the pool this context operates on.
func (ctx *ThreadCtx) Pool() *Pool { return ctx.pool }

// AllocWords allocates n fresh zeroed words and returns their address.
// Freshly allocated memory is zero in both the volatile and durable views.
func (ctx *ThreadCtx) AllocWords(n int) Addr {
	ctx.pool.checkCrash()
	return ctx.pool.alloc(n)
}

// AllocLines allocates n whole cache lines, line-aligned, for
// thread-private persistent variables.
func (ctx *ThreadCtx) AllocLines(n int) Addr {
	ctx.pool.checkCrash()
	return ctx.pool.allocLines(n)
}

// TryAllocLines allocates n whole cache lines like AllocLines but reports
// exhaustion instead of panicking, so growable arenas (internal/rmm) can
// stop growing gracefully when the pool runs out. On failure the reserved
// words are rolled back when no later reservation raced in; racing
// failures leak their overshoot, which is harmless — the arena is full.
func (ctx *ThreadCtx) TryAllocLines(n int) (Addr, bool) {
	ctx.pool.checkCrash()
	return ctx.pool.tryAllocLines(n)
}

// localChunkWords is the refill size of the per-thread allocation cache.
const localChunkWords = 1024

// AllocLocal allocates n fresh zeroed words from a per-thread chunk. Like a
// real NVMM allocator with thread-local arenas, it keeps freshly allocated
// objects of different threads in different cache lines, so flushing
// not-yet-shared data stays cheap (one of the paper's Low-impact pwb
// classes). The global bump pointer is touched once per chunk refill, not
// once per allocation. n must not exceed the chunk size.
func (ctx *ThreadCtx) AllocLocal(n int) Addr {
	ctx.pool.checkCrash()
	if n > localChunkWords {
		return ctx.pool.alloc(n)
	}
	if ctx.localOff+n > ctx.localEnd {
		a := ctx.pool.allocLines(localChunkWords / LineWords)
		ctx.localOff = int(a / WordSize)
		ctx.localEnd = ctx.localOff + localChunkWords
	}
	a := Addr(ctx.localOff * WordSize)
	ctx.localOff += n
	return a
}

// Load lives in words_relaxed.go / words_atomic.go: it is the one accessor
// hot (and small) enough to be worth fitting into the inlining budget,
// which requires reading crashCtl and wordLimit as direct fields.

// Store atomically writes v to the word at a in the volatile view and marks
// its line dirty. The write becomes durable only after a PWB of its line
// completes (or the line is evicted).
func (ctx *ThreadCtx) Store(a Addr, v uint64) {
	p := ctx.pool
	wi := p.index(a)
	p.storeWord(wi, v)
	if p.mode == ModeStrict {
		ctx.markWrite(wi)
	}
}

// markWrite records strict-mode write metadata — a fresh version, the
// dirty bit, and the writing thread (evictions must respect its fences) —
// and returns the new version.
func (ctx *ThreadCtx) markWrite(wi int) uint64 {
	p := ctx.pool
	ver := atomic.AddUint64(&p.wver[wi], 1)
	atomic.StoreUint32(&p.dirty[wi/LineWords], 1)
	atomic.StoreInt32(&p.writer[wi/LineWords], int32(ctx.tid+1))
	return ver
}

// StoreDurable models a system-level failure-atomic persistent store: the
// word is written and made durable as a single indivisible action (either
// the crash precedes it entirely or the new value is durable). The paper's
// crash-recovery model needs one such primitive: the system's reset of the
// per-thread check-point CP to 0, performed atomically with an operation's
// invocation (Section 2 and footnote 1 — detectable algorithms require
// system support). It is not available to algorithm code, which must use
// Store/PWB/PSync.
func (ctx *ThreadCtx) StoreDurable(s Site, a Addr, v uint64) {
	p := ctx.pool
	p.checkCrash()
	wi := p.wordIndex(a)
	p.storeWord(wi, v)
	if p.mode == ModeStrict {
		// The durable commit is the system's, not a code line's: it
		// happens even when the site is disabled.
		p.commitWord(wi, ctx.markWrite(wi), v)
	}
	if !ctx.siteOn(s) {
		return
	}
	ctx.countPWB(s)
	stall := 0
	if p.mode == ModeFast {
		stall = ctx.chargePWB(wi / LineWords)
		if ctx.faOn {
			// The word was stored and flushed as one action: the line is
			// freshly written back, so memoize it like any executed charge.
			ctx.memoInsert(wi / LineWords)
		}
	}
	ctx.recordPWB(s, stall)
}

// CAS atomically compares-and-swaps the word at a and reports success.
//
// The compare always runs the real CMPXCHG, deliberately without a
// test-and-test-and-set shortcut: hardware charges the full locked
// read-modify-write even when the compare fails, so resolving a doomed
// CAS from a plain read would undercharge exactly the contended
// executions the simulation is supposed to price. The locked operation's
// cost is irreducible and part of the modeled instruction mix.
func (ctx *ThreadCtx) CAS(a Addr, old, new uint64) bool {
	p := ctx.pool
	wi := p.index(a)
	ok := p.casWord(wi, old, new)
	if ok && p.mode == ModeStrict {
		ctx.markWrite(wi)
	}
	return ok
}

// CASV is CAS that additionally returns the value observed when the CAS
// fails (the `res` of Algorithm 2 line 35). On success prev == old.
func (ctx *ThreadCtx) CASV(a Addr, old, new uint64) (prev uint64, ok bool) {
	p := ctx.pool
	p.checkCrash()
	wi := p.wordIndex(a)
	for {
		cur := p.loadWord(wi)
		if cur != old {
			return cur, false
		}
		if p.casWord(wi, old, new) {
			if p.mode == ModeStrict {
				ctx.markWrite(wi)
			}
			return old, true
		}
	}
}

// PWB schedules a persistent write-back of the cache line containing a.
// The site identifies the issuing code line for the paper's per-site
// accounting; a disabled site makes the PWB a no-op (the "code line
// removed" experiments).
func (ctx *ThreadCtx) PWB(s Site, a Addr) { ctx.writeBack(s, ctx.pool.index(a), false) }

// PWBRange issues the PWBs needed to write back words [a, a+words*8), one
// per cache line covered. It models flushing a freshly initialized object.
func (ctx *ThreadCtx) PWBRange(s Site, a Addr, words int) {
	if words <= 0 {
		return
	}
	p := ctx.pool
	p.checkCrash()
	first := p.wordIndex(a) / LineWords
	last := p.wordIndex(a+Addr((words-1)*WordSize)) / LineWords
	for line := first; line <= last; line++ {
		ctx.writeBack(s, line*LineWords, false)
	}
}

// writeBack is the one record point and cost dispatch of every algorithm
// write-back: PWB, PWBRange, PWBFirst and LoadAndPersist's dirty path all
// come here with the word index wi whose line is written back. A disabled
// site does nothing. Otherwise the write-back counts against its site and
// then takes exactly one cost path: ModeStrict captures the line (strict
// mode never defers, so the crash-state space is the same with batching
// on or off); an open write-combining epoch defers it into the buffer;
// flush avoidance may elide it; everything else charges it. first marks a
// dirty-discipline word (PWBFirst): inside an epoch its tag is cleared so
// no later observer can also elide the merged write-back, and under flush
// avoidance only its first observer pays.
func (ctx *ThreadCtx) writeBack(s Site, wi int, first bool) {
	if !ctx.siteOn(s) {
		return
	}
	ctx.countPWB(s)
	line := wi / LineWords
	stall := 0
	switch {
	case ctx.pool.mode == ModeStrict:
		ctx.captureLine(line)
	case ctx.inEpoch():
		if first {
			ctx.clearDirty(wi)
		}
		ctx.deferPWB(line)
	case ctx.faOn:
		if first {
			stall = ctx.firstCharge(wi, line)
		} else {
			stall = ctx.memoCharge(line)
		}
	default:
		stall = ctx.chargePWB(line)
	}
	ctx.recordPWB(s, stall)
}

// recordPWB is the tail of every recorded write-back, StoreDurable's
// included: the telemetry report (with the stall charged, if any) and the
// SetCrashAtSite countdown, which fires after the write-back is scheduled.
// With no sink attached and no site crash armed it is one inlined branch.
func (ctx *ThreadCtx) recordPWB(s Site, stall int) {
	if ctx.sink != nil || ctx.pool.ctlFast()&ctlSiteArm != 0 {
		ctx.recordObserved(s, stall)
	}
}

// recordObserved is recordPWB's outlined body.
//
//go:noinline
func (ctx *ThreadCtx) recordObserved(s Site, stall int) {
	if ctx.sink != nil {
		ctx.telePWB(s, stall)
	}
	if ctx.pool.ctlFast()&ctlSiteArm != 0 {
		ctx.siteHit(s)
	}
}

// captureLine schedules a write-back of line with its current volatile
// content and versions.
//
// A cache holds at most one pending write-back per line: flushing a line
// that is already scheduled — and not yet ordered by a fence — refreshes
// the content the write-back will carry rather than queueing a second one.
// Coalescing duplicate flushes reproduces that and keeps the pending queue
// (and the commitPending work on every PSync) short for flush-heavy
// algorithms such as Capsules, which write back the same capsule line
// several times between fences. Entries of earlier fence epochs must not
// be refreshed — their content is ordered before the fence — so the scan
// stops at the epoch boundary. It is also shallow: each wbEntry is two
// cache lines of captured payload, so probing an entry's line field is a
// cache miss, and flush patterns that benefit repeat a line immediately
// (depth 1) or alternate two lines (depth 2). A duplicate the scan misses
// only costs one redundant entry, which the version-guarded commit
// applies idempotently.
func (ctx *ThreadCtx) captureLine(line int) {
	floor := ctx.epochStart
	if f := len(ctx.pending) - 2; f > floor {
		floor = f
	}
	for i := len(ctx.pending) - 1; i >= floor; i-- {
		if e := &ctx.pending[i]; e.line == line && !e.fence {
			ctx.pool.snapLine(e)
			return
		}
	}
	ctx.pending = append(ctx.pending, wbEntry{line: line})
	ctx.pool.snapLine(&ctx.pending[len(ctx.pending)-1])
}

// snapLine fills a write-back entry with the line's current volatile
// content and versions.
func (p *Pool) snapLine(e *wbEntry) {
	base := e.line * LineWords
	for i := 0; i < LineWords; i++ {
		// Read the version first: pairing (v, ver) where ver is the
		// version of some write no later than the value read keeps
		// durable versions conservative (a commit never claims a
		// newer version than the value it writes).
		e.vers[i] = atomic.LoadUint64(&p.wver[base+i])
		e.vals[i] = p.loadWord(base + i)
	}
}

// chargePWB performs the ModeFast cost accounting for a write-back of line
// and returns the spin units charged (for telemetry stall attribution).
// It touches shared per-line metadata (real contention, as on the modeled
// hardware: the flushed line itself moves between caches) and spins in
// proportion to the line's flush heat.
func (ctx *ThreadCtx) chargePWB(line int) int {
	p := ctx.pool
	m := atomic.LoadUint64(&p.lineMeta[line])
	last := int(m & 0xffffffff)
	heat := int(m >> 32)
	if last != ctx.tid+1 {
		if heat < p.cost.MaxHeat {
			heat++
		}
	} else if heat > 0 {
		heat--
	}
	atomic.StoreUint64(&p.lineMeta[line], uint64(heat)<<32|uint64(ctx.tid+1))
	ctx.pwbsExecuted.Add(1)
	n := p.cost.PWBBase + heat*p.cost.PWBHeatUnit
	spin(n)
	ctx.spun.Add(uint64(n))
	return n
}

// PFence orders the thread's preceding PWBs before its subsequent PWBs.
func (ctx *ThreadCtx) PFence() {
	p := ctx.pool
	p.checkCrash()
	if !p.psyncEnabled.Load() {
		return
	}
	ctx.pfences.Add(1)
	if ctx.sink != nil {
		ctx.sink.TelemetryPFence(ctx.tid)
	}
	if p.mode == ModeStrict {
		ctx.pending = append(ctx.pending, wbEntry{fence: true})
		ctx.epochStart = len(ctx.pending)
	}
	// ModeFast: fences are free; on the modelled hardware every CAS
	// already serializes outstanding stores (paper Section 5, finding 1).
}

// PSync waits until all of the thread's scheduled write-backs complete.
// After PSync returns, every preceding PWB of this thread is durable.
func (ctx *ThreadCtx) PSync() {
	p := ctx.pool
	p.checkCrash()
	if !p.psyncEnabled.Load() {
		// The "no psync" experiments remove the instruction from the
		// code; in ModeStrict we still commit pending write-backs so
		// that correctness tests cannot be run in a silently broken
		// configuration (the flag is a benchmarking device).
		if p.mode == ModeStrict {
			ctx.commitPending()
		}
		return
	}
	if p.mode == ModeFast && ctx.inEpoch() {
		ctx.deferPSync()
		return
	}
	ctx.psyncs.Add(1)
	switch p.mode {
	case ModeStrict:
		if ctx.sink != nil {
			ctx.telePSync(0, ctx.commitPendingTimed())
		} else {
			ctx.commitPending()
		}
	case ModeFast:
		if ctx.faOn {
			// The failure-free window closes: later duplicate flushes of a
			// line must execute again, so the flushed-line memo drops.
			ctx.memoClear()
		}
		spin(p.cost.PSyncCost)
		ctx.spun.Add(uint64(p.cost.PSyncCost))
		if ctx.sink != nil {
			ctx.telePSync(int64(p.cost.PSyncCost), 0)
		}
	}
}

// commitPending completes every scheduled write-back of this thread.
func (ctx *ThreadCtx) commitPending() {
	p := ctx.pool
	for i := range ctx.pending {
		e := &ctx.pending[i]
		if !e.fence {
			p.commitLine(e)
		}
	}
	ctx.pending = ctx.pending[:0]
	ctx.epochStart = 0
}

// commitLine writes a captured line snapshot to the durable view.
func (p *Pool) commitLine(e *wbEntry) {
	for i := range e.vals {
		p.commitWord(e.line*LineWords+i, e.vers[i], e.vals[i])
	}
}

// commitWord makes v, written at version ver, the durable content of word
// wi, unless a newer version is already durable (per-location write-backs
// preserve program order).
func (p *Pool) commitWord(wi int, ver, v uint64) {
	for {
		dv := atomic.LoadUint64(&p.dver[wi])
		if ver <= dv {
			return
		}
		if atomic.CompareAndSwapUint64(&p.dver[wi], dv, ver) {
			atomic.StoreUint64(&p.durable[wi], v)
			return
		}
	}
}

// PendingWritebacks reports how many write-backs this thread has scheduled
// but not yet synced (ModeStrict diagnostics).
func (ctx *ThreadCtx) PendingWritebacks() int {
	n := 0
	for i := range ctx.pending {
		if !ctx.pending[i].fence {
			n++
		}
	}
	return n
}
