package kvstore

import (
	"fmt"

	"repro/internal/pmem"
	"repro/internal/recovery"
	"repro/internal/rhash"
	"repro/internal/rmm"
	"repro/internal/telemetry"
	"repro/internal/tracking"
)

// RecoveryStats summarizes one whole-store recovery in deterministic
// units (persistence-instruction deltas, not wall clocks — the workload
// reports that embed these must be byte-identical across runs).
type RecoveryStats struct {
	Shards          int
	SlotsReconciled int    // live slots tombstoned (torn puts / deletes)
	LeaksReclaimed  uint64 // blocks RecoverGC returned to the free-stacks
	MarksRestored   uint64 // must be 0: bits are durable before publish
	PWBs            uint64 // write-backs issued by recovery
	PSyncs          uint64 // syncs issued by recovery
}

// LastRecovery returns the stats of the Recover/RecoverParallel call that
// produced this store (zero for a store built by New).
func (s *Store) LastRecovery() RecoveryStats { return s.lastRecovery }

// attachStore validates the root slot and header and rebuilds the
// volatile store skeleton (shards still nil) plus the shared tracking
// engine. tid is the thread id used for the serial header reads.
func attachStore(pool *pmem.Pool, rootSlot, tid int) (*Store, *pmem.ThreadCtx, error) {
	root, err := pool.RootSlotChecked(rootSlot)
	if err != nil {
		return nil, nil, fmt.Errorf("kvstore: %w", err)
	}
	boot := pool.NewThread(tid)
	header := pmem.Addr(boot.Load(root))
	if header == pmem.Null {
		return nil, nil, fmt.Errorf("kvstore: root slot %d holds no store", rootSlot)
	}
	if !pool.ValidWords(header, headerWords) {
		return nil, nil, fmt.Errorf("kvstore: root slot %d: %#x is not a header address", rootSlot, uint64(header))
	}
	if m := boot.Load(header + hMagic*pmem.WordSize); m != storeMagic {
		return nil, nil, fmt.Errorf("kvstore: root slot %d: bad magic %#x", rootSlot, m)
	}
	s := &Store{
		pool:       pool,
		header:     header,
		nShards:    int(boot.Load(header + hShards*pmem.WordSize)),
		nBuckets:   int(boot.Load(header + hBuckets*pmem.WordSize)),
		slotCap:    int(boot.Load(header + hSlotCap*pmem.WordSize)),
		maxThreads: int(boot.Load(header + hThreads*pmem.WordSize)),
		seed:       boot.Load(header + hSeed*pmem.WordSize),
		dir:        pmem.Addr(boot.Load(header + hDir*pmem.WordSize)),
	}
	if s.nShards < 1 || s.nBuckets < 1 || s.nBuckets&(s.nBuckets-1) != 0 ||
		s.slotCap < 1 || s.slotCap&(s.slotCap-1) != 0 || s.maxThreads < 1 ||
		!pool.ValidWords(s.dir, s.nShards*pmem.LineWords) {
		return nil, nil, fmt.Errorf("kvstore: root slot %d: corrupt header", rootSlot)
	}
	engTable := pmem.Addr(boot.Load(header + hEngTable*pmem.WordSize))
	if !pool.ValidWords(engTable, 1) {
		return nil, nil, fmt.Errorf("kvstore: root slot %d: corrupt header", rootSlot)
	}
	if tid >= s.maxThreads {
		return nil, nil, fmt.Errorf("kvstore: recovery thread id %d >= store max threads %d", tid, s.maxThreads)
	}
	s.shards = make([]*shard, s.nShards)
	s.registerSites()
	s.eng = tracking.Attach(pool, engTable, s.maxThreads, "rhash")
	// Finish every index operation the crash left in flight before any
	// shard reads its membership: completed later, by its owner's
	// recovery or a helper, one would change membership behind the slot
	// reconciliation.
	s.eng.HelpPending(s.eng.Thread(boot))
	return s, boot, nil
}

// recoverShard re-attaches shard si and makes it consistent: the embedded
// index and the shard allocator are validated and rebuilt, every live
// slot whose key the index does not contain is durably tombstoned (a put
// that crashed before its index insert, or a delete that crashed after
// its index delete), foreign or duplicate slots are rejected as
// corruption, and RecoverGC rewrites the allocator's bitmaps to exactly
// the surviving blocks. All durable words touched belong to shard si, and
// the per-shard instruction sequence does not depend on which worker runs
// it — which is why serial and parallel recovery produce byte-identical
// durable state.
func (s *Store) recoverShard(ctx *pmem.ThreadCtx, si int) (reconciled int, err error) {
	pool := s.pool
	entry := s.dirEntry(si)
	table := pmem.Addr(ctx.Load(entry + deIndex*pmem.WordSize))
	slots := pmem.Addr(ctx.Load(entry + deSlots*pmem.WordSize))
	if !pool.ValidWords(slots, s.slotCap) {
		return 0, fmt.Errorf("kvstore: shard %d: slot table %#x outside pool", si, uint64(slots))
	}
	m, err := rhash.AttachEmbedded(s.eng, ctx, table, s.nBuckets)
	if err != nil {
		return 0, fmt.Errorf("kvstore: shard %d: %w", si, err)
	}
	alloc, err := rmm.AttachAt(ctx, entry+deAlloc*pmem.WordSize)
	if err != nil {
		return 0, fmt.Errorf("kvstore: shard %d: %w", si, err)
	}
	sh := &shard{idx: m, alloc: alloc, slots: slots}
	member := make(map[int64]bool)
	for _, k := range m.Keys(ctx) {
		member[k] = true
	}
	seen := make(map[int64]bool)
	var roots []pmem.Addr
	dirty := false
	for j := 0; j < s.slotCap; j++ {
		w := s.slotAddr(sh, j)
		v := ctx.LoadAndPersist(s.siteSlotObs, w)
		if v == slotEmpty || v == slotTombstone {
			continue
		}
		b := pmem.Addr(v)
		if !alloc.Owns(b) {
			return 0, fmt.Errorf("kvstore: shard %d slot %d: block %#x not owned by shard allocator", si, j, v)
		}
		k := int64(ctx.Load(b + bKey*pmem.WordSize))
		if seen[k] {
			return 0, fmt.Errorf("kvstore: shard %d: key %d has two live slots", si, k)
		}
		seen[k] = true
		if !member[k] || s.shardOf(k) != si {
			ctx.Store(w, slotTombstone)
			ctx.PWB(s.siteSlot, w)
			dirty = true
			reconciled++
			continue
		}
		roots = append(roots, b)
	}
	if dirty {
		ctx.PSync()
	}
	// The commit protocol publishes a key's slot durably before its index
	// insert linearizes, so an index member without a live slot means the
	// store's durable state was corrupted outside the protocol.
	if len(roots) != len(member) {
		return 0, fmt.Errorf("kvstore: shard %d: %d index members vs %d consistent slots", si, len(member), len(roots))
	}
	if err := alloc.RecoverGC(ctx, func(visit func(pmem.Addr) error) error {
		for _, b := range roots {
			if err := visit(b); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, fmt.Errorf("kvstore: shard %d: %w", si, err)
	}
	if st := alloc.Stats(); st.MarksRestored != 0 {
		return 0, fmt.Errorf("kvstore: shard %d: %d blocks were published before their bitmap bit", si, st.MarksRestored)
	}
	s.shards[si] = sh
	return reconciled, nil
}

func (s *Store) finishRecovery(base pmem.Stats, reconciled int) {
	st := s.pool.Snapshot().Sub(base)
	var leaks, restored uint64
	for _, sh := range s.shards {
		a := sh.alloc.Stats()
		leaks += a.LeaksReclaimed
		restored += a.MarksRestored
	}
	s.lastRecovery = RecoveryStats{
		Shards:          s.nShards,
		SlotsReconciled: reconciled,
		LeaksReclaimed:  leaks,
		MarksRestored:   restored,
		PWBs:            st.PWBs,
		PSyncs:          st.PSyncs,
	}
}

// Recover re-attaches the store committed through rootSlot after a crash
// and repairs every shard serially. Per-operation results are then
// available through the Recover* handle methods.
func Recover(pool *pmem.Pool, rootSlot int) (*Store, error) {
	base := pool.Snapshot()
	s, boot, err := attachStore(pool, rootSlot, 0)
	if err != nil {
		return nil, err
	}
	reconciled := 0
	for si := 0; si < s.nShards; si++ {
		n, err := s.recoverShard(boot, si)
		if err != nil {
			return nil, err
		}
		reconciled += n
	}
	s.finishRecovery(base, reconciled)
	return s, nil
}

// RecoverParallel is Recover with the per-shard repair fanned out across
// the engine's workers (PhaseAttach). Shards touch disjoint durable
// words and run the same code serial or parallel, so the durable state
// and persistence-instruction totals match Recover exactly.
func RecoverParallel(pool *pmem.Pool, rootSlot int, eng *recovery.Engine) (*Store, error) {
	base := pool.Snapshot()
	s, _, err := attachStore(pool, rootSlot, eng.BaseTID())
	if err != nil {
		return nil, err
	}
	perShard := make([]int, s.nShards)
	err = eng.For(pool, recovery.PhaseAttach, s.nShards,
		func(ctx *pmem.ThreadCtx, si int) error {
			n, err := s.recoverShard(ctx, si)
			perShard[si] = n
			return err
		}, nil)
	if err != nil {
		return nil, err
	}
	reconciled := 0
	for _, n := range perShard {
		reconciled += n
	}
	s.finishRecovery(base, reconciled)
	return s, nil
}

// RecoverPut is Put's exactly-once recovery function: call it, after
// store recovery, with the arguments of the interrupted Put. If the Put's
// index insert took effect before the crash, it returns that insert's
// result and lands a torn TTL stamp (stage 3) on the block if it is still
// the unstamped one the Put published; store recovery already made the
// value plane agree with the index. Otherwise the Put had no visible
// effect and is re-executed. An overwrite never reaches the index, so it
// is always re-executed (reporting false while the key is still present)
// — provided the caller ran Invoke before the interrupted Put (see
// Handle.Invoke); otherwise the checkpoint of the thread's previous index
// operation answers.
func (h *Handle) RecoverPut(key int64, val uint64, expireAt uint64) (bool, error) {
	s := h.s
	si := s.shardOf(key)
	sh := s.shards[si]
	s.lock(h.ctx, sh)
	absent, done := h.idx(si).Resolve()
	if done {
		_, block, _ := h.probe(sh, key)
		if block != pmem.Null && h.ctx.Load(block+bTTL*pmem.WordSize) == 0 &&
			h.ctx.Load(block+bVal*pmem.WordSize) == val {
			h.stampTTL(block, expireAt)
		}
	}
	s.unlock(sh)
	if done {
		return absent, nil
	}
	return h.Put(key, val, expireAt)
}

// RecoverGet is Get's recovery function: a read has no effect to finish
// or undo, so it re-executes Get and linearizes inside recovery.
func (h *Handle) RecoverGet(key int64) (uint64, bool) { return h.Get(key) }

// RecoverDelete is Delete's exactly-once recovery function: call it, after
// store recovery, with the key of the interrupted Delete. If the Delete's
// index delete took effect before the crash, it returns that result; store
// recovery already tombstoned the slot the delete left live. Otherwise the
// Delete is re-executed. A Delete of an absent key never reaches the index,
// so, as for RecoverPut, it is exact only if the caller ran Invoke before
// the interrupted Delete.
func (h *Handle) RecoverDelete(key int64) (bool, error) {
	s := h.s
	si := s.shardOf(key)
	sh := s.shards[si]
	s.lock(h.ctx, sh)
	present, done := h.idx(si).Resolve()
	s.unlock(sh)
	if done {
		return present, nil
	}
	return h.Delete(key)
}

// RecoverCAS is CAS's value-witnessed recovery function: if the durable
// value equals new, the swap committed before the crash; if it equals
// old, the swap never committed and is re-executed; any other value means
// the precondition already failed. The witness cannot distinguish the
// two when old == new — that degenerate CAS is a no-op either way, but
// its reported result after a crash may be a false positive; callers
// needing exactness there should use Put.
func (h *Handle) RecoverCAS(key int64, old, new uint64) (bool, error) {
	s := h.s
	si := s.shardOf(key)
	sh := s.shards[si]
	s.lock(h.ctx, sh)
	defer s.unlock(sh)
	pos, block, _ := h.probe(sh, key)
	if block == pmem.Null {
		return false, nil
	}
	v := h.ctx.Load(block + bVal*pmem.WordSize)
	if v == new {
		return true, nil
	}
	if v != old {
		return false, nil
	}
	ttl := h.ctx.Load(block + bTTL*pmem.WordSize)
	if err := h.replace(si, pos, block, key, ttl, new); err != nil {
		return false, err
	}
	return true, nil
}

// AuditPostRecovery verifies the allocator-level recovery contract on a
// freshly recovered, quiescent store: no bitmap bit had to be restored
// (blocks are durable before they are published), and each shard's
// allocated-block population equals its live slots exactly (RecoverGC
// rewrote the bitmaps to the reachable set, and no handle caches exist
// yet to hold claimed-but-unpublished blocks).
func (s *Store) AuditPostRecovery(ctx *pmem.ThreadCtx) error {
	for si, sh := range s.shards {
		st := sh.alloc.Stats()
		if st.MarksRestored != 0 {
			return fmt.Errorf("kvstore: shard %d: %d marks restored", si, st.MarksRestored)
		}
		if inUse, live := sh.alloc.InUse(ctx), s.ShardLiveSlots(ctx, si); inUse != live {
			return fmt.Errorf("kvstore: shard %d: %d blocks in use vs %d live slots", si, inUse, live)
		}
	}
	return nil
}

// PublishTelemetry exports the store's counters as the kvstore-* gauge
// family, including one completed-operations gauge per shard (the
// per-shard throughput surface) and the deterministic recovery-cost
// stats of the last Recover/RecoverParallel.
func (s *Store) PublishTelemetry(reg *telemetry.Registry) {
	reg.SetGauge("kvstore-shards", uint64(s.nShards))
	reg.SetGauge("kvstore-puts", s.puts.Load())
	reg.SetGauge("kvstore-gets", s.gets.Load())
	reg.SetGauge("kvstore-deletes", s.deletes.Load())
	reg.SetGauge("kvstore-cas", s.casOps.Load())
	reg.SetGauge("kvstore-evictions", s.evictions.Load())
	var live, total int64
	for si, sh := range s.shards {
		st := sh.alloc.Stats()
		live += st.LiveBlocks
		total += st.TotalBlocks
		reg.SetGauge(fmt.Sprintf("kvstore-shard-%03d-ops", si), sh.ops.Load())
	}
	reg.SetGauge("kvstore-blocks-live", uint64(live))
	reg.SetGauge("kvstore-blocks-total", uint64(total))
	r := s.lastRecovery
	reg.SetGauge("kvstore-recovery-slots-reconciled", uint64(r.SlotsReconciled))
	reg.SetGauge("kvstore-recovery-leaks-reclaimed", r.LeaksReclaimed)
	reg.SetGauge("kvstore-recovery-pwbs", r.PWBs)
	reg.SetGauge("kvstore-recovery-psyncs", r.PSyncs)
}
