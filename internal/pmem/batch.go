package pmem

// Cross-operation persistence batching: a per-thread write-combining
// buffer that records pwb'd lines instead of charging them immediately,
// merging duplicate flushes across operations up to a bounded epoch, plus
// a group-psync discipline that amortizes one sync over the operations of
// the epoch. The paper's cost finding (fences near-free, flushes of
// contended lines dominant) says exactly where this pays: algorithms that
// re-flush the same lines operation after operation (a log tail, a
// combiner's announce array, adjacent log entries sharing a cache line).
//
// The batching layer must not change what the crash machinery can observe:
//
//   - The *record point* is unchanged. A batched PWB still counts against
//     its site (countPWB), still reports to telemetry, and still drives
//     SetCrashAtSite's hit countdown — so the deterministic sweep's site
//     profile, its (site, hit) task matrix, and its per-task instruction
//     metrics are identical with batching on or off.
//   - ModeStrict has no batching at all. Write-backs are captured at PWB
//     time and committed at PSync time exactly as without batching, so the
//     durable states reachable at every psync boundary — the crash-state
//     space the sweep enumerates — are byte-identical. No ambient epoch
//     opens, the buffer stays empty, and every batching and elision
//     counter reads zero; BeginBatch/EndBatch only track nesting.
//   - ModeFast is where deferral is real: a batched PWB records its line
//     and skips the charge; a batched PSync defers its sync. The drain
//     charges each distinct line once and executes one sync for the whole
//     group. Deferral is bounded by one number, the epoch's op count (the
//     line bound is four times it), and a drain runs at epoch close
//     (EndBatch), at either bound, and at thread retire.
//
// Batching is opt-in per thread (BeginBatch/EndBatch) or ambient per pool
// (SetBatchPolicy); with neither, every path in this file is skipped and
// the per-instruction cost model is exactly the unbatched one.

// DefaultBatchOps is the epoch bound applied where a batch op count is
// not positive (BeginBatch(0)). An epoch's line bound is always four times
// its op bound: room for a few operations' distinct lines, while the dedup
// scan stays in one or two cache lines of indices.
const DefaultBatchOps = 8

// BeginBatch opens (or, nested, joins) a write-combining epoch on this
// thread that drains after ops deferred psyncs (DefaultBatchOps when ops
// is not positive) or 4*ops distinct deferred lines. Until the matching
// EndBatch, ModeFast write-back charges are deferred into a per-thread
// buffer that merges duplicate lines across operations, and psyncs are
// deferred into one group sync. ModeStrict is unchanged inside a batch
// (see the file comment). Nested BeginBatch joins the enclosing epoch;
// the inner ops is ignored.
func (ctx *ThreadCtx) BeginBatch(ops int) {
	ctx.pool.checkCrash()
	if ctx.batchDepth == 0 {
		if ops <= 0 {
			ops = DefaultBatchOps
		}
		ctx.batchOps = ops
	}
	ctx.batchDepth++
}

// EndBatch closes the innermost BeginBatch. Closing the outermost level
// drains the epoch: deferred line charges execute once per distinct line,
// and, if any psyncs were deferred, one group sync runs.
func (ctx *ThreadCtx) EndBatch() {
	if ctx.batchDepth == 0 {
		panic("pmem: EndBatch without BeginBatch")
	}
	ctx.batchDepth--
	if ctx.batchDepth == 0 {
		ctx.autoOpened = false
		ctx.drainWC(true)
	}
}

// InBatch reports whether a write-combining epoch is open on this thread
// (explicitly via BeginBatch or ambiently via the pool's batch policy).
func (ctx *ThreadCtx) InBatch() bool { return ctx.batchDepth > 0 }

// DeferredLines reports how many distinct lines are currently deferred in
// the write-combining buffer (diagnostics; always 0 in ModeStrict).
func (ctx *ThreadCtx) DeferredLines() int { return len(ctx.wcLines) }

// Retire ends this context's participation in the simulation: an open
// write-combining epoch is drained (deferred charges execute, a deferred
// group sync runs) and closed, so no simulated persistence work leaks when
// a worker exits between psyncs. Retire is idempotent; it does not commit
// ModeStrict pending write-backs (those are owed to the algorithm's own
// psync discipline, not to thread exit).
func (ctx *ThreadCtx) Retire() {
	ctx.batchDepth = 0
	ctx.autoOpened = false
	ctx.drainWC(true)
}

// SetBatchPolicy installs (or, with ops <= 0, removes) an ambient
// write-combining policy: every thread of the pool behaves as if its op
// stream ran inside one long BeginBatch(ops), draining at the epoch bounds
// instead of at an explicit EndBatch. The change propagates through the
// site-table generation, so a running thread adopts it at its next site
// check. This is the opt-in batched-op mode the bench runner exposes for
// structures whose code is not batch-aware.
func (p *Pool) SetBatchPolicy(ops int) {
	p.mu.Lock()
	p.batchPolicy = max(ops, 0)
	p.bumpSiteGen()
	p.mu.Unlock()
}

// BatchPolicy returns the ambient write-combining policy's op bound (0
// when none).
func (p *Pool) BatchPolicy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.batchPolicy
}

// inEpoch reports whether a write-combining epoch is open, opening an
// ambient one from the cached pool policy when there is none. Only the
// ModeFast cost paths ask: strict mode has no batching bookkeeping.
func (ctx *ThreadCtx) inEpoch() bool {
	return ctx.batchDepth > 0 || (ctx.autoBatch > 0 && ctx.autoBatchOpen())
}

// autoBatchOpen opens an ambient batch from the cached pool policy.
// Called on the persistence paths when no batch is open; reports whether
// one was opened. The policy cache rides the same generation as the site
// bitmask, so it is at most one site-table change stale — indistinguishable
// from the policy switch racing the instruction.
//
//go:noinline
func (ctx *ThreadCtx) autoBatchOpen() bool {
	ctx.batchOps = ctx.autoBatch
	ctx.batchDepth = 1
	ctx.autoOpened = true
	return true
}

// deferPWB records a fast-mode write-back of line into the
// write-combining buffer instead of charging it. A line already buffered
// is merged (its charge is eliminated); hitting the line bound drains the
// charges but keeps the epoch open. The dedup scan is linear over at most
// 4*batchOps int entries — a few cache lines of indices, like the small
// write-combining structures it models.
func (ctx *ThreadCtx) deferPWB(line int) {
	ctx.pwbsDeferred.Add(1)
	for _, l := range ctx.wcLines {
		if l == line {
			ctx.pwbsMerged.Add(1)
			return
		}
	}
	ctx.wcLines = append(ctx.wcLines, line)
	if len(ctx.wcLines) >= 4*ctx.batchOps {
		ctx.drainWC(false)
	}
}

// deferPSync defers a fast-mode psync into the epoch's group sync and
// drains the epoch when the op bound is reached.
func (ctx *ThreadCtx) deferPSync() {
	ctx.wcOps++
	if ctx.wcOps >= ctx.batchOps {
		ctx.drainWC(true)
	}
}

// drainWC executes the deferred persistence work of the open epoch: each
// distinct buffered line is charged once (the write-combined flush) and,
// when sync is set and psyncs were deferred, one group sync executes for
// all of them. Only ModeFast ever defers, so a strict-mode drain finds
// nothing. The epoch stays open (only EndBatch and Retire close it);
// bounds-triggered drains reuse it.
func (ctx *ThreadCtx) drainWC(sync bool) {
	p := ctx.pool
	if len(ctx.wcLines) == 0 && ctx.wcOps == 0 {
		return
	}
	ctx.batchDrains.Add(1)
	stall := 0
	for _, l := range ctx.wcLines {
		stall += ctx.chargePWB(l)
	}
	if ctx.faOn {
		// A drain is a psync-like boundary for the flushed-line memo:
		// the failure-free window the memo describes closes with it.
		ctx.memoClear()
	}
	ctx.wcLines = ctx.wcLines[:0]
	// An ambient epoch whose policy has been removed closes at its next
	// drain instead of living until retire.
	if ctx.autoOpened && ctx.batchDepth == 1 && ctx.autoBatch == 0 {
		ctx.batchDepth = 0
		ctx.autoOpened = false
	}
	if !sync || ctx.wcOps == 0 {
		return
	}
	merged := ctx.wcOps - 1
	ctx.wcOps = 0
	if merged > 0 {
		ctx.psyncsMerged.Add(uint64(merged))
	}
	if p.psyncEnabled.Load() {
		ctx.psyncs.Add(1)
		spin(p.cost.PSyncCost)
		ctx.spun.Add(uint64(p.cost.PSyncCost))
		if ctx.sink != nil {
			ctx.telePSync(int64(stall+p.cost.PSyncCost), 0)
		}
	}
}
