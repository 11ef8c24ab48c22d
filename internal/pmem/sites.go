package pmem

import (
	"sort"
	"sync/atomic"
)

// Site identifies one pwb code line of an algorithm, the unit of the
// paper's persistence-cost accounting (Section 5): sites are counted
// individually, can be disabled individually ("remove this code line"), and
// are classified by measured impact into Low/Medium/High categories.
type Site int

// NoSite is a placeholder for internal write-backs that belong to no
// algorithm code line (never counted, never disabled).
const NoSite Site = -1

// bumpSiteGen publishes a site-table change. Called with p.mu held.
// Threads notice the new generation on their next site check and re-copy
// the enabled bitmask under the lock; between the bump and the re-copy a
// thread may still act on the previous configuration, which is
// indistinguishable from the site switch racing the PWB.
func (p *Pool) bumpSiteGen() {
	p.genLocked++
	p.siteGen.Store(p.genLocked)
}

// RegisterSite registers a pwb code line under a human-readable label and
// returns its Site handle. Algorithms register their sites at construction
// time, before threads start issuing PWBs, but registering while threads
// run is also safe: registration touches only the pool's own tables (never
// another thread's context — each ThreadCtx grows its own counters on
// demand, see countPWB) and publishes the change via the generation
// counter. Registering the same label twice returns the same Site.
func (p *Pool) RegisterSite(label string) Site {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, l := range p.sites {
		if l == label {
			return Site(i)
		}
	}
	p.sites = append(p.sites, label)
	if need := (len(p.sites) + 63) / 64; need > len(p.enabledBits) {
		p.enabledBits = append(p.enabledBits, 0)
	}
	s := Site(len(p.sites) - 1)
	p.setSiteBit(s, true)
	p.bumpSiteGen()
	return s
}

// SiteLabels returns the labels of all registered sites, indexed by Site.
func (p *Pool) SiteLabels() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(make([]string, 0, len(p.sites)), p.sites...)
}

// SetSiteEnabled enables or disables the pwb code line s. A disabled site's
// PWBs are not executed and not counted, exactly as if the line were
// removed from the source.
func (p *Pool) SetSiteEnabled(s Site, on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(s) >= 0 && int(s) < len(p.sites) {
		p.setSiteBit(s, on)
		p.bumpSiteGen()
	}
}

// SetAllSitesEnabled enables or disables every registered pwb code line
// (the "[no pwbs]" configurations of Figures 3f and 4f).
func (p *Pool) SetAllSitesEnabled(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.sites {
		p.setSiteBit(Site(i), on)
	}
	p.bumpSiteGen()
}

// setSiteBit sets or clears site s's bit in the enabled bitmask, the one
// copy of the site switches. Called with p.mu held.
func (p *Pool) setSiteBit(s Site, on bool) {
	w, bit := uint(s)>>6, uint64(1)<<(uint(s)&63)
	if on {
		p.enabledBits[w] |= bit
	} else {
		p.enabledBits[w] &^= bit
	}
}

// siteOn reports whether site s is enabled, consulting a thread-local copy
// of the pool's enabled bitmask. The common path is one load of the padded
// generation word (read-mostly: it changes only on site registration or
// reconfiguration) plus one indexed bit test — the seed walked a shared
// slice of per-site pointers and an atomic.Bool per PWB, dragging two
// shared cache lines through every flush of every thread.
func (ctx *ThreadCtx) siteOn(s Site) bool {
	if s < 0 {
		return true // NoSite; countPWB separately ignores it
	}
	p := ctx.pool
	if g := p.siteGen.Load(); g != ctx.siteGen {
		ctx.refreshSites()
	}
	i := uint(s)
	if w := i >> 6; w < uint(len(ctx.siteBits)) {
		return ctx.siteBits[w]>>(i&63)&1 != 0
	}
	// A site this pool has never registered (foreign handle): treat as
	// enabled, matching the seed's out-of-range behaviour.
	return true
}

// refreshSites re-copies the generation-published pool configuration
// under the pool lock.
//
//go:noinline
func (ctx *ThreadCtx) refreshSites() {
	ctx.pool.mu.Lock()
	ctx.adoptLocked()
	ctx.pool.mu.Unlock()
}

// adoptLocked copies everything published through the site-table
// generation — the enabled bitmask, the telemetry sink, the ambient batch
// policy and the flush-avoidance switch — into the owner's cache. Called
// with p.mu held.
func (ctx *ThreadCtx) adoptLocked() {
	p := ctx.pool
	ctx.siteBits = append(ctx.siteBits[:0], p.enabledBits...)
	ctx.sink = p.telemetry
	ctx.autoBatch = p.batchPolicy
	ctx.faOn = p.flushAvoid && p.mode == ModeFast
	ctx.siteGen = p.genLocked
}

// Stats is a snapshot of persistence-instruction counters summed over all
// live thread contexts.
type Stats struct {
	PWBsBySite map[string]uint64
	PWBs       uint64
	PSyncs     uint64
	PFences    uint64
	SpinUnits  uint64 // ModeFast: total simulated persistence latency charged

	// Write-combining batch counters (batch.go) and flush-avoidance
	// counters (flushavoid.go). PWBs counts every *recorded* write-back
	// (batched, elided or not — the record point is invariant under both
	// features); the charges that actually executed number
	// PWBs - PWBsMerged - PWBsElided, and in ModeFast windows free of
	// NoSite traffic PWBsExecuted equals exactly that once open epochs
	// have drained (the invariant executed + merged + elided == recorded,
	// pinned by TestFlushAvoidCounterExclusivity). A write-back lands in
	// at most one of Merged/Elided: an open batch clears the dirty tag and
	// owns the dedup accounting, so elision never double-counts a merged
	// flush. PSyncs likewise counts executed syncs only, so a batched run
	// shows PSyncs shrinking as PSyncsMerged grows. In ModeStrict every
	// batching and elision counter reads zero: strict mode neither defers
	// nor elides anything.
	PWBsDeferred uint64 // write-backs recorded into a write-combining buffer
	PWBsMerged   uint64 // of those, duplicate lines merged (charges eliminated)
	PSyncsMerged uint64 // psyncs absorbed into a group sync
	BatchDrains  uint64 // write-combining drains executed
	PWBsElided   uint64 // flush avoidance: charges skipped (clean word / memo hit)
	PWBsExecuted uint64 // ModeFast charges that actually spun (includes NoSite)
}

// Snapshot sums the counters of all thread contexts created since the pool
// was built (or since the last Recover, which detaches dead contexts).
// It is safe to call while threads run; counters read mid-run are exact
// for operations the issuing thread has completed.
func (p *Pool) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{PWBsBySite: make(map[string]uint64, len(p.sites))}
	for _, l := range p.sites {
		st.PWBsBySite[l] = 0
	}
	for _, ctx := range p.ctxs {
		// The pwbPerSite header is swapped only under p.mu (see
		// countPWB), so this read is synchronized with owner growth.
		for i := range ctx.pwbPerSite {
			if i < len(p.sites) {
				c := ctx.pwbPerSite[i].Load()
				st.PWBsBySite[p.sites[i]] += c
				st.PWBs += c
			}
		}
		st.PSyncs += ctx.psyncs.Load()
		st.PFences += ctx.pfences.Load()
		st.SpinUnits += ctx.spun.Load()
		st.PWBsDeferred += ctx.pwbsDeferred.Load()
		st.PWBsMerged += ctx.pwbsMerged.Load()
		st.PSyncsMerged += ctx.psyncsMerged.Load()
		st.BatchDrains += ctx.batchDrains.Load()
		st.PWBsElided += ctx.pwbsElided.Load()
		st.PWBsExecuted += ctx.pwbsExecuted.Load()
	}
	return st
}

// Sub returns the counters accumulated since base was snapshotted: the
// per-site map contains exactly the sites with a positive delta (no stale
// zero entries, no keys base saw but st did not), and every difference is
// clamped at zero so a base that exceeds the snapshot (a pool reset, a
// detached context) can never underflow the unsigned counters.
func (st Stats) Sub(base Stats) Stats {
	sub := func(a, b uint64) uint64 {
		if a <= b {
			return 0
		}
		return a - b
	}
	d := Stats{
		PWBsBySite:   make(map[string]uint64, len(st.PWBsBySite)),
		PWBs:         sub(st.PWBs, base.PWBs),
		PSyncs:       sub(st.PSyncs, base.PSyncs),
		PFences:      sub(st.PFences, base.PFences),
		SpinUnits:    sub(st.SpinUnits, base.SpinUnits),
		PWBsDeferred: sub(st.PWBsDeferred, base.PWBsDeferred),
		PWBsMerged:   sub(st.PWBsMerged, base.PWBsMerged),
		PSyncsMerged: sub(st.PSyncsMerged, base.PSyncsMerged),
		BatchDrains:  sub(st.BatchDrains, base.BatchDrains),
		PWBsElided:   sub(st.PWBsElided, base.PWBsElided),
		PWBsExecuted: sub(st.PWBsExecuted, base.PWBsExecuted),
	}
	for k, v := range st.PWBsBySite {
		if dv := sub(v, base.PWBsBySite[k]); dv > 0 {
			d.PWBsBySite[k] = dv
		}
	}
	return d
}

// SortedSiteCounts returns (label, count) pairs in descending count order.
func (st Stats) SortedSiteCounts() []SiteCount {
	out := make([]SiteCount, 0, len(st.PWBsBySite))
	for l, c := range st.PWBsBySite {
		out = append(out, SiteCount{Label: l, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// SiteCount pairs a site label with its executed-PWB count.
type SiteCount struct {
	Label string
	Count uint64
}

// countPWB bumps the per-site counter: one atomic add on a line owned by
// the issuing thread. The total is derived in Snapshot (the seed paid a
// second shared-nothing-but-still-locked add for a running total).
//
// Counters for sites registered after this context was created are grown
// here, by the owner itself under p.mu; no other thread ever swaps the
// slice out from under the owner (the seed's RegisterSite did, racing
// unsynchronized reads in this function).
func (ctx *ThreadCtx) countPWB(s Site) {
	if s < 0 {
		// Infrastructure write-backs (pool/structure construction) are
		// not part of any algorithm's persistence accounting.
		return
	}
	if int(s) >= len(ctx.pwbPerSite) {
		ctx.growSiteCounters(int(s) + 1)
	}
	ctx.pwbPerSite[s].Add(1)
}

//go:noinline
func (ctx *ThreadCtx) growSiteCounters(n int) {
	p := ctx.pool
	p.mu.Lock()
	if len(p.sites) > n {
		n = len(p.sites)
	}
	grown := make([]atomic.Uint64, n)
	for i := range ctx.pwbPerSite {
		grown[i].Store(ctx.pwbPerSite[i].Load())
	}
	ctx.pwbPerSite = grown
	p.mu.Unlock()
}
