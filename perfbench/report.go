package main

import (
	"fmt"
	"runtime/debug"

	"repro/internal/pmem"
	"repro/internal/recovery"
)

// Pool sizing. The structures never reuse pool words they allocate, so
// the pool must hold set-up plus every request the run can make; the
// traffic share is measured, not guessed (see sizePool).
const (
	calibrateNs    = int64(300e6)
	calibrateWords = 1 << 25
	// poolHeadroom multiplies the measured traffic words: the measured
	// phase may run faster than the short calibration.
	poolHeadroom = 3
)

// sizePool runs the workload's request mix for calibrateNs on a store of
// its own (same key space and pool mode) and returns the pool capacity of
// one store of the run: its set-up words (setupWords, also returned) plus
// poolHeadroom times the measured words per request at the measured
// request rate over the store's warm-up and measured time.
func sizePool(opt options) (capWords, setupWords int, wordsPerOp, opsPerSec float64, err error) {
	p := newBench(options{w: opt.w, seed: opt.seed ^ 0xca1b}, 0)
	if err := p.setup(calibrateWords); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("calibration: %w", err)
	}
	setupWords = p.pool.AllocatedWords()*5/4 + 1<<16
	ph := p.startPhase()
	wins, wall := p.segment(calibrateNs, calibrateNs, false)
	if err := p.aborted(); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("calibration: %w", err)
	}
	ph.stop()
	ops := max(wins[0].ops, 1)
	wordsPerOp = float64(p.words) / float64(ops)
	opsPerSec = float64(ops) / (float64(wall) / 1e9)
	traffic := wordsPerOp * opsPerSec * (opt.storeSeconds() + float64(opt.warmupNs)/1e9 + 1)
	return setupWords + int(poolHeadroom*traffic), setupWords, wordsPerOp, opsPerSec, nil
}

// Set-up samples: when the stores' own set-ups add up to less than
// minSetupS, extra set-ups (on pools sized for set-up alone, never
// measured) are timed until they do, up to maxSetups in all, so setup_s
// is a median of many samples even where one set-up takes milliseconds.
const (
	minSetupS = 0.5
	maxSetups = 100
)

// buildStores sizes the pool, builds every store of the run and times the
// set-ups, with the collector off. A pool is one huge slice whose pages
// are touched only as the store grows into them; a slice placed partly
// over freed memory is zeroed whole by the runtime, which makes all of it
// resident (and adds the zeroing to set-up time). With nothing freed,
// every pool lands on fresh memory.
func buildStores(opt options, ctl *tracer) (bs []*bench, setupS []float64, capWords int, calWords, calRate float64, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	capWords, setupWords, calWords, calRate, err := sizePool(opt)
	if err != nil {
		return nil, nil, 0, 0, 0, err
	}
	total := 0.0
	for i := 0; i < opt.stores || (total < minSetupS && i < maxSetups); i++ {
		b := newBench(opt, i)
		b.ctl = ctl
		words := capWords
		if i >= opt.stores {
			words = setupWords
		}
		if err := b.setup(words); err != nil {
			return nil, nil, 0, 0, 0, err
		}
		setupS = append(setupS, b.setupS...)
		total += b.setupS[0]
		if i < opt.stores {
			bs = append(bs, b)
		}
	}
	return bs, setupS, capWords, calWords, calRate, nil
}

// execute performs one run: it builds every store first, then measures
// and checks each in turn, returning each store's memory to the operating
// system once it is done, and assembles the report.
func execute(opt options) (*report, error) {
	rep := &report{metrics: metrics{}}
	var ctl *tracer
	if opt.trace {
		ctl = &tracer{}
	}
	bs, setupS, capWords, calWords, calRate, err := buildStores(opt, ctl)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	peakRSS := 0.0
	for i, b := range bs {
		if opt.w.strict {
			err = b.measureCrash()
		} else {
			err = b.measureFast()
		}
		if err != nil {
			return nil, err
		}
		// Resident memory is read once garbage is returned: the pools make
		// the Go heap huge, so the collector's timing alone would otherwise
		// decide how much dead memory a sample catches.
		debug.FreeOSMemory()
		peakRSS = max(peakRSS, residentMiB())
		ctx := b.pool.NewThread(setupTID)
		sp := ctl.begin("bench.final_check", -1, 0)
		b.or.checkFinal(b.store, b.store.Handle(ctx), ctx)
		ctl.end(sp)
		if i < len(bs)-1 {
			b.release()
			debug.FreeOSMemory()
		}
	}
	t := combine(bs)
	t.peakRSS, t.setupS = peakRSS, setupS

	violations := t.or.violations.Load()
	rep.attempted, rep.failed = max(t.attempted, 1), t.failed+violations
	rep.errs = t.errs
	rep.correct = violations == 0
	rep.note("workload %s seed %d: %d stores (%d set-ups timed), %d requests attempted, %d failed, %d check violations",
		opt.w.name, opt.seed, len(bs), len(setupS), rep.attempted, rep.failed, violations)
	rep.note("pool per store: %s mode, %d words (%.2f words/request at %.0f requests/s in calibration, headroom %dx)",
		modeName(t.mode()), capWords, calWords, calRate, poolHeadroom)
	rep.note("error_rate %.6g (failed / attempted)", float64(rep.failed)/float64(rep.attempted))
	if opt.trace {
		if err := t.perLayer(rep); err != nil {
			return nil, err
		}
		rep.tracers = append([]*tracer{ctl}, t.tracers...)
	} else {
		t.endToEnd(rep)
	}
	return rep, nil
}

// release drops the store's pool and every reference into it, keeping the
// counts the report needs.
func (b *bench) release() {
	b.pool, b.store = nil, nil
	for _, cl := range b.cl {
		cl.ctx, cl.h = nil, nil
	}
}

// combine folds the per-store results into one bench: totals are summed,
// windows and recoveries pooled, and the last store (still live) is kept
// for the layer probes.
func combine(bs []*bench) *bench {
	last := bs[len(bs)-1]
	t := &bench{
		opt: last.opt, pool: last.pool, store: last.store, ctl: last.ctl, eng: last.eng,
		or:     &oracle{},
		pm:     pmem.Stats{PWBsBySite: map[string]uint64{}},
		shards: make([]uint64, len(last.shards)),
	}
	for _, b := range bs {
		t.pm.PWBs += b.pm.PWBs
		t.pm.PSyncs += b.pm.PSyncs
		t.pm.PFences += b.pm.PFences
		t.pm.SpinUnits += b.pm.SpinUnits
		t.pm.PWBsExecuted += b.pm.PWBsExecuted
		for k, v := range b.pm.PWBsBySite {
			t.pm.PWBsBySite[k] += v
		}
		t.words += b.words
		t.ops += b.ops
		for i, v := range b.shards {
			t.shards[i] += v
		}
		t.wins = append(t.wins, b.wins...)
		t.cycles = append(t.cycles, b.cycles...)
		for i := range t.seg {
			t.seg[i].ops += b.seg[i].ops
			t.seg[i].ns += b.seg[i].ns
		}
		t.tracers = append(t.tracers, b.tracers...)
		t.or.violations.Add(b.or.violations.Load())
		t.errs = append(t.errs, b.or.errors()...)
		for _, l := range b.or.logs {
			t.casTried += l.casTried
			t.casOK += l.casOK
		}
		for _, cl := range b.cl {
			t.attempted += cl.completed
			t.failed += cl.failed
			if cl.firstErr != "" {
				t.errs = append(t.errs, cl.firstErr)
			}
		}
	}
	return t
}

func modeName(m pmem.Mode) string {
	if m == pmem.ModeStrict {
		return "strict"
	}
	return "fast"
}

// windowMetric returns the median over windows of f, skipping windows
// where f is undefined (NaN).
func (b *bench) windowMetric(f func(w *window) float64) float64 {
	var xs []float64
	for i := range b.wins {
		if v := f(&b.wins[i]); v == v {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// endToEnd sets the metrics a caller of the store sees.
func (b *bench) endToEnd(rep *report) {
	var reads, writes int64
	for _, w := range b.wins {
		reads += w.read.n
		writes += w.write.n
	}
	rep.note("%d windows; %d read and %d write latency samples; %d recoveries",
		len(b.wins), reads, writes, len(b.cycles))
	rep.set("throughput_ops_s", "ops/s", b.windowMetric(func(w *window) float64 {
		return float64(w.ops) / (float64(w.busyNs) / 1e9)
	}))
	rep.set("read_p50_ns", "ns", b.windowMetric(func(w *window) float64 { return w.read.quantile(0.5) }))
	rep.set("read_p99_ns", "ns", b.windowMetric(func(w *window) float64 { return w.read.quantile(0.99) }))
	rep.set("write_p50_ns", "ns", b.windowMetric(func(w *window) float64 { return w.write.quantile(0.5) }))
	rep.set("write_p99_ns", "ns", b.windowMetric(func(w *window) float64 { return w.write.quantile(0.99) }))
	rep.set("pmem_bytes_per_op", "B", b.perOp(uint64(b.words*pmem.WordSize)))
	rep.set("peak_rss_mib", "MiB", b.peakRSS)
	rep.set("setup_s", "s", median(append([]float64(nil), b.setupS...)))
	rep.set("recover_ms", "ms", b.cycleMedian(func(c *cycleStats) []int64 { return []int64{c.recover} })/1e6)
}

// cycleMedian returns the median over every measured recovery of the
// values f extracts (none for a recovery with nothing to report).
func (b *bench) cycleMedian(f func(c *cycleStats) []int64) float64 {
	var xs []float64
	for i := range b.cycles {
		for _, v := range f(&b.cycles[i]) {
			xs = append(xs, float64(v))
		}
	}
	return median(xs)
}

// perLayer sets the traced run's per-layer metrics.
func (b *bench) perLayer(rep *report) error {
	for _, name := range spanNames {
		var ds []float64
		for _, t := range b.tracers {
			ds = append(ds, t.durations(name)...)
		}
		rep.set(name+"_ns", "ns", median(ds))
		if len(ds) > 0 {
			rep.note("%s: %d spans", name, len(ds))
		}
	}
	rep.set("kvstore.shard_skew", "ratio", skew(b.shards))
	rep.set("kvstore.cas_success_frac", "ratio", float64(b.casOK)/float64(b.casTried))

	rh, err := b.probeRhash()
	if err != nil {
		return err
	}
	rep.set("rhash.find_ns", "ns", rh["rhash.find"])
	rep.set("rhash.insert_ns", "ns", rh["rhash.insert"])
	rep.set("rhash.delete_ns", "ns", rh["rhash.delete"])
	live := len(b.store.Keys(b.pool.NewThread(setupTID)))
	rep.set("rhash.keys_per_bucket", "keys", float64(live)/float64(b.store.NumShards()*defaultBuckets))
	af, err := b.probeRmm(live / b.store.NumShards())
	if err != nil {
		return err
	}
	rep.set("rmm.alloc_free_ns", "ns", af)

	spin := pmem.CalibrateSpin()
	pm := b.pm
	stall := b.perOp(pm.SpinUnits) * spin
	rep.set("pmem.spin_unit_ns", "ns", spin)
	rep.set("pmem.stall_ns_per_op", "ns", stall)
	// Closed loop: each client always has one request outstanding, so the
	// mean request takes clients x wall / completed (untraced segments).
	meanOp := float64(clients) * float64(b.seg[0].ns) / float64(max(b.seg[0].ops, 1))
	rep.set("pmem.stall_share", "ratio", stall/meanOp)
	rep.set("pmem.pwbs_per_op", "count", b.perOp(pm.PWBs))
	rep.set("pmem.psyncs_per_op", "count", b.perOp(pm.PSyncs))
	rep.set("pmem.pfences_per_op", "count", b.perOp(pm.PFences))
	rep.set("pmem.pwb_exec_frac", "ratio", float64(pm.PWBsExecuted)/float64(pm.PWBs))
	rep.set("pmem.pwbs_kvstore_per_op", "count", b.perOp(sumPrefix(pm.PWBsBySite, "kvstore/")))
	rep.set("pmem.pwbs_tracking_per_op", "count", b.perOp(sumPrefix(pm.PWBsBySite, "rhash/")))
	rep.set("pmem.pwbs_rmm_per_op", "count", b.perOp(sumPrefix(pm.PWBsBySite, "rmm/")))
	rep.set("tracking.backtrack_frac", "ratio",
		float64(pm.PWBsBySite["rhash/pwb-info-backtrack"])/float64(pm.PWBsBySite["rhash/pwb-info-tag"]))

	rep.set("pmem.restore_ms", "ms", b.cycleMedian(func(c *cycleStats) []int64 { return []int64{c.restore} })/1e6)
	rep.set("recovery.store_ms", "ms", b.cycleMedian(func(c *cycleStats) []int64 { return []int64{c.store} })/1e6)
	rep.set("recovery.resolve_us", "us", b.cycleMedian(func(c *cycleStats) []int64 { return c.resolve })/1e3)
	rep.set("recovery.first_op_us", "us", b.cycleMedian(func(c *cycleStats) []int64 { return c.first })/1e3)
	st := b.eng.Stats()[recovery.PhaseAttach.String()]
	rep.set("recovery.attach_span_frac", "ratio", float64(st.SpanItems)/float64(st.Items))
	rep.set("recovery.slots_reconciled", "count", b.cycleMedian(func(c *cycleStats) []int64 { return []int64{int64(c.rec.SlotsReconciled)} }))
	rep.set("recovery.leaks_reclaimed", "count", b.cycleMedian(func(c *cycleStats) []int64 { return []int64{int64(c.rec.LeaksReclaimed)} }))
	rep.set("recovery.pwbs", "count", b.cycleMedian(func(c *cycleStats) []int64 { return []int64{int64(c.rec.PWBs)} }))
	rep.set("recovery.verify_ms", "ms", b.cycleMedian(func(c *cycleStats) []int64 { return []int64{c.verify} })/1e6)

	rep.set("bench.clock_ns", "ns", clockCost())
	untraced := float64(b.seg[0].ops) / float64(max(b.seg[0].ns, 1))
	traced := float64(b.seg[1].ops) / float64(max(b.seg[1].ns, 1))
	rep.set("bench.trace_overhead", "ratio", untraced/traced-1)

	self := map[string]int64{}
	for _, t := range append([]*tracer{b.ctl}, b.tracers...) {
		for k, v := range t.selfTimes() {
			self[k] += v
		}
	}
	for _, k := range sortedKeys(self) {
		rep.note("self time %-26s %12.3f ms", k, float64(self[k])/1e6)
	}
	return nil
}

// skew is max over mean of per-shard counts.
func skew(xs []uint64) float64 {
	var sum, top uint64
	for _, x := range xs {
		sum += x
		top = max(top, x)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) / (float64(sum) / float64(len(xs)))
}
