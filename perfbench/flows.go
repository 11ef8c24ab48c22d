package main

import (
	"fmt"
	"math/rand"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// Crash adversary of the crash-recover workload: each write-back of the
// epoch cut by the crash completes with probability commitProb, and each
// dirty line is written back by eviction with probability evictProb.
const (
	commitProb = 0.5
	evictProb  = 0.1
)

// cycleStats are one recovery's timings (ns) and store-reported counts.
type cycleStats struct {
	restore, store, recover, verify int64
	resolve, first                  []int64
	rec                             kvstore.RecoveryStats
}

// phase accumulates counter deltas of measured work: it snapshots the
// pool before the work and adds the difference after it.
type phase struct {
	b     *bench
	pm    pmem.Stats
	words int
}

func (b *bench) startPhase() phase {
	return phase{b: b, pm: b.pool.Snapshot(), words: b.pool.AllocatedWords()}
}

func (p phase) stop() {
	b := p.b
	d := b.pool.Snapshot().Sub(p.pm)
	b.pm.PWBs += d.PWBs
	b.pm.PSyncs += d.PSyncs
	b.pm.PFences += d.PFences
	b.pm.SpinUnits += d.SpinUnits
	b.pm.PWBsExecuted += d.PWBsExecuted
	for k, v := range d.PWBsBySite {
		b.pm.PWBsBySite[k] += v
	}
	b.words += int64(b.pool.AllocatedWords() - p.words)
}

func shardOps(s *kvstore.Store) []uint64 {
	out := make([]uint64, s.NumShards())
	for i := range out {
		out[i] = s.ShardOps(i)
	}
	return out
}

func (b *bench) addShardOps(before []uint64) {
	for i, v := range shardOps(b.store) {
		b.shards[i] += v - before[i]
	}
}

// A ModeFast store measures at least opt.restarts quiescent restarts, and
// more while they add up to less than minRestartNs (at most maxRestarts),
// so a store that restarts in a millisecond still gives a steady median.
const (
	minRestartNs = int64(20e6)
	maxRestarts  = 20
)

// measureFast runs a ModeFast workload: the quiescent restarts of the
// freshly preloaded store, a discarded warm-up, then the measured
// closed-loop phase (interleaved untraced and traced segments in a traced
// run, see traceEvery). Restarts come first because a restart after
// traffic walks live data scattered across the whole used pool, and on a
// virtual machine its time then swings severalfold between processes with
// how the host backs that memory; before traffic it measures the recovery
// work itself.
func (b *bench) measureFast() error {
	o := b.opt
	spent := int64(0)
	for i := 0; i < o.restarts || (spent < minRestartNs && i < maxRestarts); i++ {
		cs, err := b.restart()
		if err != nil {
			return err
		}
		b.cycles = append(b.cycles, cs)
		spent += cs.recover
	}
	b.segment(o.warmupNs, o.warmupNs, false)
	if err := b.aborted(); err != nil {
		return err
	}
	dur := int64(o.storeSeconds() * 1e9)
	ph := b.startPhase()
	sh := shardOps(b.store)
	if !o.trace {
		wins, _ := b.segment(dur, o.winNs, false)
		b.wins = wins
	} else {
		for i := 0; int64(i)*traceSegNs < dur; i++ {
			traced := tracedSeg(i)
			wins, wall := b.segment(traceSegNs, traceSegNs, traced)
			b.seg[b2i(traced)].ops += wins[0].ops
			b.seg[b2i(traced)].ns += wall
		}
	}
	if err := b.aborted(); err != nil {
		return err
	}
	ph.stop()
	b.addShardOps(sh)
	for _, w := range b.wins {
		b.ops += w.ops
	}
	for _, s := range b.seg {
		b.ops += s.ops
	}
	return nil
}

// restart measures one quiescent restart: whole-store recovery from the
// pool as a restarted process would run it, then each client's first
// request on a fresh thread. Nothing is in flight, so nothing is resolved.
func (b *bench) restart() (cycleStats, error) {
	root := b.ctl.begin("recovery.restart", -1, 0)
	t0 := now()
	s, err := kvstore.RecoverParallel(b.pool, rootSlot, b.eng)
	if err != nil {
		return cycleStats{}, fmt.Errorf("restart: %w", err)
	}
	t1 := now()
	b.ctl.record("recovery.store", t0, t1, root, 0)
	b.store = s
	cs := cycleStats{store: t1 - t0, rec: s.LastRecovery()}
	b.resume(&cs, t0, root)
	b.ctl.end(root)
	if err := b.aborted(); err != nil {
		return cs, err
	}
	b.verifyRecovered(&cs)
	return cs, nil
}

// resume runs the clients' resolutions and first requests and records
// them from the recovery start t0.
func (b *bench) resume(cs *cycleStats, t0 int64, parent int32) {
	resolve, first := b.resumeClients()
	done := t0
	for c := range resolve {
		if iv := resolve[c]; iv.lo >= 0 {
			cs.resolve = append(cs.resolve, iv.ns())
			b.ctl.record("recovery.resolve", iv.lo, iv.hi, parent, b.cl[c].req())
		}
		iv := first[c]
		cs.first = append(cs.first, iv.ns())
		b.ctl.record("recovery.first_op", iv.lo, iv.hi, parent, b.cl[c].req())
		done = max(done, iv.hi)
	}
	cs.recover = done - t0
}

// verifyRecovered checks a just-recovered store outside the timed recovery:
// the store's invariants, the allocator audit, and (crash-recover) that
// every request resolved exactly once left membership and each written
// key's value as the exact model predicts.
func (b *bench) verifyRecovered(cs *cycleStats) {
	t0 := now()
	root := b.ctl.begin("recovery.verify", -1, 0)
	ctx := b.pool.NewThread(setupTID)
	h := b.store.Handle(ctx)
	if b.or.exact {
		sp := b.ctl.begin("bench.exactly_once", root, 0)
		b.or.checkMembership(b.store, ctx)
		for _, l := range b.or.logs {
			for _, k := range l.touched {
				if l.model[k-1] != 0 {
					b.or.checkValue(h, k)
				}
			}
			l.touched = l.touched[:0]
		}
		b.ctl.end(sp)
	}
	sp := b.ctl.begin("kvstore.check_invariants", root, 0)
	if err := b.store.CheckInvariants(ctx, true); err != nil {
		b.or.fail("CheckInvariants after recovery: %v", err)
	}
	b.ctl.end(sp)
	sp = b.ctl.begin("kvstore.audit", root, 0)
	if err := b.store.AuditPostRecovery(ctx); err != nil {
		b.or.fail("AuditPostRecovery: %v", err)
	}
	b.ctl.end(sp)
	b.ctl.end(root)
	cs.verify = now() - t0
}

// measureCrash runs the crash-recover workload on one store: one
// discarded warm-up cycle, then cycles until its measured time is used.
// Each cycle runs traffic until a seeded crash fires, resolves the crash
// under a seeded adversary, recovers, resumes the clients and verifies.
func (b *bench) measureCrash() error {
	crashes := newRNG(b.opt.seed, 0xc4a5)
	adversary := rand.New(rand.NewSource(int64(splitmix64(b.opt.seed ^ 0xad0e))))
	dur := int64(b.opt.storeSeconds() * 1e9)
	for cyc, used := 0, int64(0); used < dur || cyc < 2; cyc++ {
		measured := cyc > 0
		t0 := now()
		traced := b.opt.trace && measured && tracedSeg(cyc-1)
		cs, win, err := b.crashCycle(crashes, adversary, measured, traced)
		if err != nil {
			return err
		}
		if measured {
			b.wins = append(b.wins, win)
			b.cycles = append(b.cycles, cs)
			used += now() - t0
		}
	}
	return nil
}

// crashCycle runs one traffic round to a crash and the recovery after it.
// Counters of the round and of the resumed requests are accumulated when
// measured; the verification's are not.
func (b *bench) crashCycle(crashes *rng, adversary *rand.Rand, measured, traced bool) (cycleStats, window, error) {
	var cs cycleStats
	ph := b.startPhase()
	sh := shardOps(b.store)
	b.pool.SetCrashAfter(int64(b.opt.crashAccesses/2 + crashes.intn(b.opt.crashAccesses)))
	wins, wall := b.drive(traced, func(cl *client, wins []window) {
		for {
			kind, t0, t1 := cl.step()
			file(&wins[0], kind, t1-t0)
		}
	}, 1)
	b.pool.SetCrashAfter(0)
	if err := b.aborted(); err != nil {
		return cs, window{}, err
	}
	if !b.pool.CrashPending() {
		return cs, window{}, fmt.Errorf("traffic round ended without the armed crash")
	}
	win := wins[0]
	win.busyNs = wall
	if measured {
		ph.stop()
		b.addShardOps(sh)
		b.ops += win.ops
		b.seg[b2i(traced)].ops += win.ops
		b.seg[b2i(traced)].ns += wall
	}

	root := b.ctl.begin("recovery.cycle", -1, 0)
	t0 := now()
	b.pool.Crash(pmem.CrashPolicy{Rng: adversary, CommitProb: commitProb, EvictProb: evictProb})
	b.pool.Recover()
	t1 := now()
	b.ctl.record("pmem.restore", t0, t1, root, 0)
	cs.restore = t1 - t0
	s, err := kvstore.RecoverParallel(b.pool, rootSlot, b.eng)
	if err != nil {
		return cs, win, fmt.Errorf("recovery: %w", err)
	}
	t2 := now()
	b.ctl.record("recovery.store", t1, t2, root, 0)
	b.store = s
	cs.store, cs.rec = t2-t1, s.LastRecovery()
	ph = b.startPhase()
	b.resume(&cs, t1, root)
	b.ctl.end(root)
	if err := b.aborted(); err != nil {
		return cs, win, err
	}
	if measured {
		ph.stop()
		b.ops += int64(len(cs.first) + len(cs.resolve))
	}
	b.verifyRecovered(&cs)
	return cs, win, nil
}
