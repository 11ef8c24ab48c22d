package tracking

import (
	"fmt"

	"repro/internal/pmem"
)

// Bottom is the "no result yet" sentinel (⊥). Operation responses must not
// use this value.
const Bottom = ^uint64(0)

// Tagged returns the tagged version of a descriptor reference: installing
// it in a node's info field soft-locks the node for the descriptor's
// operation. Tagging sets the least significant bit, which is always clear
// in the 8-aligned descriptor addresses.
func Tagged(d pmem.Addr) uint64 { return uint64(d) | 1 }

// Untagged returns the untagged version of a descriptor reference.
func Untagged(d pmem.Addr) uint64 { return uint64(d) &^ 1 }

// IsTagged reports whether an info-field value is tagged.
func IsTagged(v uint64) bool { return v&1 == 1 }

// DescOf extracts the descriptor address from an info-field value. Both
// low bits are masked: bit 0 is the tag, and bit 1 may transiently carry
// the substrate's link-and-persist dirty marker (pmem.DirtyBit) on an
// info word read outside the dirty-discipline accessors.
func DescOf(v uint64) pmem.Addr { return pmem.Addr(v &^ 3) }

// AffectEntry is one element of an operation's AffectSet.
type AffectEntry struct {
	// InfoField is the address of the node's info word.
	InfoField pmem.Addr
	// Observed is the info value read during the gather phase; the
	// tagging CAS uses it as the expected value.
	Observed uint64
	// Untag indicates the node remains in the data structure after the
	// operation and must be untagged during cleanup. Nodes the operation
	// removes stay tagged forever (Figure 1c: a deleted node's info
	// keeps pointing, tagged, at the deleting operation's descriptor).
	Untag bool
}

// WriteEntry is one element of an operation's WriteSet: field changes from
// Old to New via CAS. Old values never recur (the original implementation
// never stores the same value into a shared variable twice), which makes
// replaying the CAS idempotent.
type WriteEntry struct {
	Field    pmem.Addr
	Old, New uint64
}

// Region describes a freshly allocated object to persist before the
// operation is published (the NewSet part of pbarrier in Algorithms 3-6).
type Region struct {
	Addr  pmem.Addr
	Words int
}

// Descriptor word layout:
//
//	0: opType
//	1: result (Bottom until the operation takes effect)
//	2: pendingResult (the response to install on success)
//	3: packed counts: nAffect | nWrite<<20 | nNew<<40
//	4 + 2i:   affect[i] info-field address, bit 0 = Untag flag
//	5 + 2i:   affect[i] observed info value
//	then 3 words per write entry (field, old, new)
//	then 1 word per NewSet info-field address
const (
	descOpType  = 0
	descResult  = 1
	descPending = 2
	descCounts  = 3
	descEntries = 4
)

// Engine shares the per-data-structure state of the Tracking transform: the
// pool, the persistent per-thread recovery table (CP and RD variables), and
// the registered persistence sites.
type Engine struct {
	pool       *pmem.Pool
	table      pmem.Addr // maxThreads cache lines; line t: word 0 = CP, word 1 = RD
	maxThreads int
	sites      engineSites
}

type engineSites struct {
	cp      pmem.Site // pwb(CP) — thread-private
	rd      pmem.Site // pwb(RD) — thread-private
	publish pmem.Site // pbarrier(*opInfo, NewSet) — freshly allocated data
	tag     pmem.Site // pwb(nd→info) after the tagging CAS (Alg. 2 line 36)
	back    pmem.Site // pwb(nd→info) in the backtrack phase (line 42)
	update  pmem.Site // pwb(updated field) (line 51)
	result  pmem.Site // pwb(opInfo→result) (line 53)
	cleanup pmem.Site // pwb(nd→info) in the cleanup phase (line 57)
	// observed is the first-observer flush of an info word some other
	// helper already tagged (Help finds res == tag) or a traversal read
	// encounters still dirty: the link-and-persist discipline moves the
	// write-back of a not-yet-durable info word to whoever sees it first.
	// Never recorded in crash-free solo runs (no helping happens), which
	// keeps the other sites' strict profiles unchanged.
	observed pmem.Site
}

func registerSites(pool *pmem.Pool, prefix string) engineSites {
	return engineSites{
		cp:       pool.RegisterSite(prefix + "/pwb-CP"),
		rd:       pool.RegisterSite(prefix + "/pwb-RD"),
		publish:  pool.RegisterSite(prefix + "/pwb-desc+new"),
		tag:      pool.RegisterSite(prefix + "/pwb-info-tag"),
		back:     pool.RegisterSite(prefix + "/pwb-info-backtrack"),
		update:   pool.RegisterSite(prefix + "/pwb-update-field"),
		result:   pool.RegisterSite(prefix + "/pwb-result"),
		cleanup:  pool.RegisterSite(prefix + "/pwb-info-cleanup"),
		observed: pool.RegisterSite(prefix + "/pwb-info-observed"),
	}
}

// ObservedSite returns the engine's first-observer flush site: structures
// pass it to pmem.LoadAndPersist on their info-word traversal reads, so a
// read that catches a not-yet-durable info word records its write-back
// against this code line.
func (e *Engine) ObservedSite() pmem.Site { return e.sites.observed }

// New creates an Engine with a fresh recovery table for maxThreads threads
// and persists the table. The caller should store TableAddr in a root slot
// so recovery can reattach.
func New(pool *pmem.Pool, maxThreads int, sitePrefix string) *Engine {
	if maxThreads <= 0 {
		panic("tracking: maxThreads must be positive")
	}
	e := &Engine{pool: pool, maxThreads: maxThreads, sites: registerSites(pool, sitePrefix)}
	boot := pool.NewThread(0)
	e.table = boot.AllocLines(maxThreads)
	boot.PWBRange(pmem.NoSite, e.table, maxThreads*pmem.LineWords)
	boot.PSync()
	return e
}

// Attach reconstructs an Engine over an existing recovery table, e.g. after
// a crash and pool recovery.
func Attach(pool *pmem.Pool, table pmem.Addr, maxThreads int, sitePrefix string) *Engine {
	return &Engine{pool: pool, table: table, maxThreads: maxThreads, sites: registerSites(pool, sitePrefix)}
}

// TableAddr returns the persistent address of the recovery table.
func (e *Engine) TableAddr() pmem.Addr { return e.table }

// Thread binds a pmem thread context to the engine. The context's thread id
// selects the CP/RD line in the recovery table.
func (e *Engine) Thread(ctx *pmem.ThreadCtx) *Thread {
	if ctx.TID() < 0 || ctx.TID() >= e.maxThreads {
		panic(fmt.Sprintf("tracking: thread id %d out of range [0,%d)", ctx.TID(), e.maxThreads))
	}
	line := e.table + pmem.Addr(ctx.TID()*pmem.LineBytes)
	return &Thread{eng: e, ctx: ctx, cp: line, rd: line + pmem.WordSize}
}

// Thread is the per-thread face of the engine. It is not safe for
// concurrent use; each simulated thread owns one.
type Thread struct {
	eng *Engine
	ctx *pmem.ThreadCtx
	cp  pmem.Addr // check-point variable CPq
	rd  pmem.Addr // recovery data variable RDq
}

// Ctx returns the underlying pmem thread context.
func (t *Thread) Ctx() *pmem.ThreadCtx { return t.ctx }

// Invoke is the system-side step of invoking a recoverable operation: the
// failure-atomic durable reset CP := 0 "just before Op's execution starts"
// (Section 2). Either the crash precedes the invocation entirely — the
// operation then had no effect and the system re-invokes it from scratch,
// never calling its recovery function — or CP = 0 is durable before the
// operation's first instruction. Without this atomicity, a crash between
// two operations could make the recovery function return the previous
// operation's response (the ambiguity that makes detectability impossible
// without system support, per Ben-Baruch et al. [5]).
//
// The data structure operations call Invoke themselves as their first
// action, so ordinary callers need not know about it; a crash-injecting
// harness should call it explicitly before the operation so that it can
// tell "crashed before invocation" (re-invoke the operation) apart from
// "crashed inside the operation" (call its recovery function). The
// duplicate reset is harmless.
func (t *Thread) Invoke() {
	t.ctx.StoreDurable(t.eng.sites.cp, t.cp, 0)
}

// BeginOp performs the bookkeeping at the start of a recoverable operation,
// Algorithm 1 lines 2-5: RD := Null; pbarrier(RD); CP := 1; pwb(CP); psync.
// All pwbs hit the thread's private recovery line (Low impact).
func (t *Thread) BeginOp() {
	s := &t.eng.sites
	t.ctx.Store(t.rd, uint64(pmem.Null))
	t.ctx.PWB(s.rd, t.rd)
	t.ctx.PFence()
	t.ctx.Store(t.cp, 1)
	t.ctx.PWB(s.cp, t.cp)
	t.ctx.PSync()
}

// NewDesc allocates and fills an operation descriptor (Algorithm 1 line 16)
// with result = Bottom. The descriptor is volatile until Publish persists
// it; SetEarlyResult may update it before publication.
func (t *Thread) NewDesc(opType, pendingResult uint64, affect []AffectEntry, writes []WriteEntry, newInfoFields []pmem.Addr) pmem.Addr {
	if pendingResult == Bottom {
		panic("tracking: pending result must not be Bottom")
	}
	words := descEntries + 2*len(affect) + 3*len(writes) + len(newInfoFields)
	d := t.ctx.AllocLocal(words)
	c := t.ctx
	c.Store(d+descOpType*pmem.WordSize, opType)
	c.Store(d+descResult*pmem.WordSize, Bottom)
	c.Store(d+descPending*pmem.WordSize, pendingResult)
	c.Store(d+descCounts*pmem.WordSize,
		uint64(len(affect))|uint64(len(writes))<<20|uint64(len(newInfoFields))<<40)
	w := d + descEntries*pmem.WordSize
	for _, a := range affect {
		v := uint64(a.InfoField)
		if a.Untag {
			v |= 1
		}
		c.Store(w, v)
		c.Store(w+pmem.WordSize, a.Observed)
		w += 2 * pmem.WordSize
	}
	for _, wr := range writes {
		c.Store(w, uint64(wr.Field))
		c.Store(w+pmem.WordSize, wr.Old)
		c.Store(w+2*pmem.WordSize, wr.New)
		w += 3 * pmem.WordSize
	}
	for _, nf := range newInfoFields {
		c.Store(w, uint64(nf))
		w += pmem.WordSize
	}
	return d
}

// DescWords returns the size in words of the descriptor at d.
func (t *Thread) DescWords(d pmem.Addr) int {
	nA, nW, nN := t.counts(d)
	return descEntries + 2*nA + 3*nW + nN
}

func (t *Thread) counts(d pmem.Addr) (nA, nW, nN int) {
	c := t.ctx.Load(d + descCounts*pmem.WordSize)
	return int(c & 0xfffff), int(c >> 20 & 0xfffff), int(c >> 40 & 0xfffff)
}

// SetEarlyResult records the response of a read-only (or failed) operation
// in its not-yet-published descriptor (Algorithm 1 line 18; Algorithm 3
// line 23). It must be called before Publish.
func (t *Thread) SetEarlyResult(d pmem.Addr, v uint64) {
	if v == Bottom {
		panic("tracking: result must not be Bottom")
	}
	t.ctx.Store(d+descResult*pmem.WordSize, v)
}

// Publish persists the descriptor and any freshly allocated nodes
// (pbarrier(*opInfo, NewSet), Algorithm 1 line 19), then installs the
// descriptor in RD and persists it (lines 20-21). After Publish returns,
// the operation is recoverable: a crash at any later point lets Recover
// find the descriptor and complete or report the operation.
func (t *Thread) Publish(d pmem.Addr, fresh ...Region) {
	s := &t.eng.sites
	t.ctx.PWBRange(s.publish, d, t.DescWords(d))
	for _, r := range fresh {
		t.ctx.PWBRange(s.publish, r.Addr, r.Words)
	}
	t.ctx.PFence()
	t.ctx.Store(t.rd, uint64(d))
	t.ctx.PWB(s.rd, t.rd)
	t.ctx.PSync()
}

// Result reads the operation's result field (Bottom if it has not taken
// effect).
func (t *Thread) Result(d pmem.Addr) uint64 {
	return t.ctx.Load(d + descResult*pmem.WordSize)
}

// OpType reads the descriptor's operation type.
func (t *Thread) OpType(d pmem.Addr) uint64 {
	return t.ctx.Load(d + descOpType*pmem.WordSize)
}

// affectEntry reads affect entry i of descriptor d.
func (t *Thread) affectEntry(d pmem.Addr, i int) (field pmem.Addr, observed uint64, untag bool) {
	w := d + pmem.Addr((descEntries+2*i)*pmem.WordSize)
	fv := t.ctx.Load(w)
	return pmem.Addr(fv &^ 1), t.ctx.Load(w + pmem.WordSize), fv&1 == 1
}

func (t *Thread) writeEntry(d pmem.Addr, nA, i int) WriteEntry {
	w := d + pmem.Addr((descEntries+2*nA+3*i)*pmem.WordSize)
	return WriteEntry{
		Field: pmem.Addr(t.ctx.Load(w)),
		Old:   t.ctx.Load(w + pmem.WordSize),
		New:   t.ctx.Load(w + 2*pmem.WordSize),
	}
}

func (t *Thread) newEntry(d pmem.Addr, nA, nW, i int) pmem.Addr {
	w := d + pmem.Addr((descEntries+2*nA+3*nW+i)*pmem.WordSize)
	return pmem.Addr(t.ctx.Load(w))
}

// Help completes the operation described by d (Algorithm 2). It is
// idempotent and may be called by the operation's initiator, by any
// concurrent thread that finds a node tagged with d, and by the recovery
// function after a crash.
func (t *Thread) Help(d pmem.Addr) {
	c := t.ctx
	s := &t.eng.sites
	nA, nW, nN := t.counts(d)
	tag, untag := Tagged(d), Untagged(d)

	// Tagging phase: install the tagged descriptor in every AffectSet
	// node, in order. Info words follow the link-and-persist discipline:
	// the CAS installs the value dirty-marked, and the flush that follows
	// executes only for the word's first observer. A helper that finds the
	// tag already installed (res == tag) records its flush at the observed
	// site — it is re-persisting another helper's write, the exact
	// redundant pwb the flush-avoidance machinery elides.
	for i := 0; i < nA; i++ {
		field, observed, _ := t.affectEntry(d, i)
		res, ok := c.CASDirty(field, observed, tag)
		switch {
		case ok:
			c.PWBFirst(s.tag, field)
		case res == tag:
			c.PWBFirst(s.observed, field)
		default:
			c.PWBFirst(s.tag, field)
			// Backtrack phase: untag the already-tagged prefix in
			// reverse order, then give up this attempt. Because
			// cleanup also untags in reverse AffectSet order, the
			// set of nodes tagged by d is always a prefix of the
			// AffectSet, so this backtrack also finishes a cleanup
			// interrupted by a crash.
			for j := i - 1; j >= 0; j-- {
				pf, _, _ := t.affectEntry(d, j)
				c.CASDirty(pf, tag, untag)
				c.PWBFirst(s.back, pf)
			}
			c.PSync()
			return
		}
	}
	c.PSync()

	// Update phase: apply every WriteSet change with CAS. Old values
	// never recur, so a replayed CAS fails harmlessly.
	for i := 0; i < nW; i++ {
		w := t.writeEntry(d, nA, i)
		c.CAS(w.Field, w.Old, w.New)
		c.PWB(s.update, w.Field)
	}

	// Record the response exactly once (the operation's linearization has
	// happened; Bottom -> pendingResult is a write-once CAS so helpers
	// cannot overwrite an already-recorded response).
	pending := c.Load(d + descPending*pmem.WordSize)
	c.CAS(d+descResult*pmem.WordSize, Bottom, pending)
	c.PWB(s.result, d+descResult*pmem.WordSize)
	c.PSync()

	// Cleanup phase: untag the NewSet, then the AffectSet in reverse
	// order (see the prefix invariant above). Nodes the operation removed
	// from the structure keep their tag forever.
	for i := 0; i < nN; i++ {
		nf := t.newEntry(d, nA, nW, i)
		c.CASDirty(nf, tag, untag)
		c.PWBFirst(s.cleanup, nf)
	}
	for i := nA - 1; i >= 0; i-- {
		field, _, doUntag := t.affectEntry(d, i)
		if !doUntag {
			continue
		}
		c.CASDirty(field, tag, untag)
		c.PWBFirst(s.cleanup, field)
	}
	c.PSync()
}

// HelpPending runs, through th, the Help that each thread's own Recover
// would run: for every thread whose checkpoint shows a published
// descriptor (CP = 1, RD set) that may still change the structure, the
// descriptor is helped to completion or backtracked. A container that
// reconciles its own state against the structure after a crash calls it
// first, so that no later Recover or helper changes the structure behind
// that reconciliation. A descriptor whose result is recorded and whose
// first AffectSet node no longer carries its tag is skipped: its updates
// were durable before its cleanup began, or it had none (an early
// result), so a quiescent structure costs no write-back.
func (e *Engine) HelpPending(th *Thread) {
	c := th.ctx
	for tid := 0; tid < e.maxThreads; tid++ {
		line := e.table + pmem.Addr(tid*pmem.LineBytes)
		d := pmem.Addr(c.Load(line + pmem.WordSize))
		if c.Load(line) == 0 || d == pmem.Null {
			continue
		}
		if nA, _, _ := th.counts(d); nA > 0 && th.Result(d) != Bottom {
			field, _, _ := th.affectEntry(d, 0)
			if c.Load(field)&^pmem.DirtyBit != Tagged(d) {
				continue
			}
		}
		th.Help(d)
	}
}

// Recover implements Op-Recover (Algorithm 1 lines 27-31). It returns the
// recovered operation's descriptor and result when the operation took
// effect before (or despite) the crash. ok == false means the operation
// made no visible changes and must simply be re-invoked with the same
// arguments.
func (t *Thread) Recover() (d pmem.Addr, result uint64, ok bool) {
	c := t.ctx
	if c.Load(t.cp) == 0 {
		return pmem.Null, 0, false
	}
	d = pmem.Addr(c.Load(t.rd))
	if d == pmem.Null {
		return pmem.Null, 0, false
	}
	t.Help(d)
	if r := t.Result(d); r != Bottom {
		return d, r, true
	}
	return d, 0, false
}
