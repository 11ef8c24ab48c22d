// Package romulus implements a compact version of Romulus (Correia, Felber,
// Ramalhete, SPAA 2018), the blocking persistent transactional memory the
// paper compares against in Section 5, together with a sorted-list set built
// on top of it.
//
// Romulus keeps two copies of the managed region: main, which transactions
// mutate in place, and back, which is always consistent. A persistent state
// word orders the copies:
//
//	idle     — main == back, both consistent
//	mutating — a transaction is changing main; back is the truth
//	copying  — the transaction is durable in main; back is being updated
//
// The commit point is persisting state = copying: a crash in mutating rolls
// back (back -> main), a crash in copying rolls forward (main -> back).
// Update transactions are serialized by a writer lock — Romulus is blocking,
// providing only starvation-freedom for updates — while read-only
// transactions share a reader lock.
//
// Detectability: each thread has a non-transactional invocation sequence
// word (written with the system's failure-atomic store at invocation) and a
// transactional (doneSeq, result) pair inside the region. A transaction
// writes doneSeq := invokeSeq and the operation's result; recovery compares
// the two sequence numbers to decide whether the operation committed.
package romulus

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/pmem"
)

// Region states.
const (
	stateIdle     uint64 = 0
	stateMutating uint64 = 1
	stateCopying  uint64 = 2
)

// Off is a logical word offset inside the TM region. 0 is the null offset.
type Off uint64

// Region header offsets (in words, inside main).
const (
	regAlloc    = 1 // bump allocation pointer (transactional)
	regPerTh    = 2 // then 2 words per thread: doneSeq, result
	perThreadSz = 2
)

type sites struct {
	state pmem.Site
	main  pmem.Site
	back  pmem.Site
	seq   pmem.Site
}

// TM is a two-copy persistent transactional memory over a pool region.
type TM struct {
	pool       *pmem.Pool
	mu         sync.RWMutex
	words      int
	mainBase   pmem.Addr
	backBase   pmem.Addr
	stateAddr  pmem.Addr
	invokeBase pmem.Addr // per-thread invocation-sequence lines
	maxThreads int
	header     pmem.Addr
	s          sites
}

// Header word offsets.
const (
	hdrMain    = 0
	hdrBack    = pmem.WordSize
	hdrState   = 2 * pmem.WordSize
	hdrInvoke  = 3 * pmem.WordSize
	hdrWords   = 4 * pmem.WordSize
	hdrThreads = 5 * pmem.WordSize
	hdrLen     = 6
)

func registerSites(pool *pmem.Pool) sites {
	return sites{
		state: pool.RegisterSite("rom/pwb-state"),
		main:  pool.RegisterSite("rom/pwb-main"),
		back:  pool.RegisterSite("rom/pwb-back"),
		seq:   pool.RegisterSite("rom/pwb-invokeseq"),
	}
}

// NewTM creates a TM managing a region of the given number of logical words
// and records its header in rootSlot.
func NewTM(pool *pmem.Pool, words, maxThreads, rootSlot int) *TM {
	if words < regPerTh+perThreadSz*maxThreads+1 {
		panic("romulus: region too small")
	}
	boot := pool.NewThread(0)
	// Line-align both copies so main/back flushes touch disjoint lines.
	mainBase := boot.AllocLines((words + pmem.LineWords - 1) / pmem.LineWords)
	backBase := boot.AllocLines((words + pmem.LineWords - 1) / pmem.LineWords)
	stateLine := boot.AllocLines(1)
	invokeBase := boot.AllocLines(maxThreads)

	header := boot.AllocLocal(hdrLen)
	boot.Store(header+hdrMain, uint64(mainBase))
	boot.Store(header+hdrBack, uint64(backBase))
	boot.Store(header+hdrState, uint64(stateLine))
	boot.Store(header+hdrInvoke, uint64(invokeBase))
	boot.Store(header+hdrWords, uint64(words))
	boot.Store(header+hdrThreads, uint64(maxThreads))

	tm := &TM{
		pool: pool, words: words, mainBase: mainBase, backBase: backBase,
		stateAddr: stateLine, invokeBase: invokeBase, maxThreads: maxThreads,
		header: header, s: registerSites(pool),
	}
	// Initialize the allocation pointer past the metadata area, in both
	// copies (fresh pool words are already zero and durable).
	firstFree := uint64(regPerTh + perThreadSz*maxThreads)
	boot.Store(tm.mainAddr(regAlloc), firstFree)
	boot.Store(tm.backAddr(regAlloc), firstFree)
	boot.PWB(pmem.NoSite, tm.mainAddr(regAlloc))
	boot.PWB(pmem.NoSite, tm.backAddr(regAlloc))
	boot.PWBRange(pmem.NoSite, header, hdrLen)
	boot.PFence()
	root := pool.RootSlot(rootSlot)
	boot.Store(root, uint64(header))
	boot.PWB(pmem.NoSite, root)
	boot.PSync()
	return tm
}

// AttachTM reconstructs a TM from rootSlot and runs crash recovery on the
// region (roll back or roll forward according to the state word).
func AttachTM(pool *pmem.Pool, rootSlot int) (*TM, error) {
	boot := pool.NewThread(0)
	header := pmem.Addr(boot.Load(pool.RootSlot(rootSlot)))
	if header == pmem.Null {
		return nil, fmt.Errorf("romulus: root slot %d holds no TM", rootSlot)
	}
	tm := &TM{
		pool:       pool,
		mainBase:   pmem.Addr(boot.Load(header + hdrMain)),
		backBase:   pmem.Addr(boot.Load(header + hdrBack)),
		stateAddr:  pmem.Addr(boot.Load(header + hdrState)),
		invokeBase: pmem.Addr(boot.Load(header + hdrInvoke)),
		words:      int(boot.Load(header + hdrWords)),
		maxThreads: int(boot.Load(header + hdrThreads)),
		header:     header,
		s:          registerSites(pool),
	}
	if tm.mainBase == pmem.Null || tm.backBase == pmem.Null || tm.words <= 0 {
		return nil, fmt.Errorf("romulus: corrupt header at %#x", uint64(header))
	}
	tm.recover(boot)
	return tm, nil
}

// recover restores region consistency after a crash.
func (tm *TM) recover(ctx *pmem.ThreadCtx) {
	switch ctx.Load(tm.stateAddr) {
	case stateMutating:
		// The in-flight transaction did not commit: roll back.
		tm.copyRegion(ctx, tm.backBase, tm.mainBase)
	case stateCopying:
		// The transaction committed: roll forward.
		tm.copyRegion(ctx, tm.mainBase, tm.backBase)
	}
	ctx.Store(tm.stateAddr, stateIdle)
	ctx.PWB(pmem.NoSite, tm.stateAddr)
	ctx.PSync()
}

func (tm *TM) copyRegion(ctx *pmem.ThreadCtx, from, to pmem.Addr) {
	for i := 0; i < tm.words; i++ {
		off := pmem.Addr(i * pmem.WordSize)
		ctx.Store(to+off, ctx.Load(from+off))
		if i%pmem.LineWords == pmem.LineWords-1 {
			ctx.PWB(pmem.NoSite, to+off)
		}
	}
	ctx.PWB(pmem.NoSite, to+pmem.Addr((tm.words-1)*pmem.WordSize))
	ctx.PSync()
}

func (tm *TM) mainAddr(off Off) pmem.Addr {
	return tm.mainBase + pmem.Addr(off)*pmem.WordSize
}

func (tm *TM) backAddr(off Off) pmem.Addr {
	return tm.backBase + pmem.Addr(off)*pmem.WordSize
}

// Tx is an update transaction's handle on the region.
type Tx struct {
	tm      *TM
	ctx     *pmem.ThreadCtx
	written []Off
}

// Read returns the logical word at off.
func (tx *Tx) Read(off Off) uint64 { return tx.ctx.Load(tx.tm.mainAddr(off)) }

// Write sets the logical word at off and records it in the write set.
func (tx *Tx) Write(off Off, v uint64) {
	tx.ctx.Store(tx.tm.mainAddr(off), v)
	tx.written = append(tx.written, off)
}

// Alloc carves n fresh logical words out of the region. The allocation
// pointer is transactional state, so an aborted (crashed) transaction also
// rolls its allocations back.
func (tx *Tx) Alloc(n int) Off {
	cur := tx.Read(regAlloc)
	if int(cur)+n > tx.tm.words {
		panic("romulus: region exhausted; size the TM for the run")
	}
	tx.Write(regAlloc, cur+uint64(n))
	return Off(cur)
}

// Update runs fn as a durable, detectable update transaction, serialized
// with all other updates.
func (tm *TM) Update(ctx *pmem.ThreadCtx, fn func(tx *Tx)) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.commit(ctx, fn)
}

// UpdateGroup runs fns as one durable group commit: a single state cycle
// (mutating -> copying -> idle) covers every fn, so the three state-word
// syncs and the per-line flushes of both copies amortize over the group,
// and the whole protocol runs inside one write-combining epoch (ops of a
// group that touch the same lines merge their flushes). Crash atomicity
// is per group — a crash before the commit point rolls back every fn,
// after it rolls every fn forward — which detectable recovery handles
// unchanged: each fn records its (seq, result) via RecordResult inside
// the same transaction, so recovery sees either all of the group's
// responses or none of them.
func (tm *TM) UpdateGroup(ctx *pmem.ThreadCtx, fns ...func(tx *Tx)) {
	if len(fns) == 0 {
		return
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	ctx.BeginBatch(0)
	defer ctx.EndBatch()
	tm.commit(ctx, func(tx *Tx) {
		for _, fn := range fns {
			fn(tx)
		}
	})
}

// commit executes the two-copy update protocol for fn's write set. The
// caller holds the writer lock.
func (tm *TM) commit(ctx *pmem.ThreadCtx, fn func(tx *Tx)) {
	c := ctx
	c.Store(tm.stateAddr, stateMutating)
	c.PWB(tm.s.state, tm.stateAddr)
	c.PSync()

	tx := &Tx{tm: tm, ctx: ctx}
	fn(tx)

	// Persist the main-copy mutations (one pwb per touched line).
	lines := map[pmem.Addr]bool{}
	for _, off := range tx.written {
		a := tm.mainAddr(off)
		line := a / pmem.LineBytes * pmem.LineBytes
		if !lines[line] {
			lines[line] = true
			c.PWB(tm.s.main, a)
		}
	}
	c.PFence()
	// Commit point.
	c.Store(tm.stateAddr, stateCopying)
	c.PWB(tm.s.state, tm.stateAddr)
	c.PSync()
	// Bring the back copy up to date. All stores complete before any
	// write-back is issued: a pwb captures its cache line's content when
	// issued, so flushing a line before its last store would persist a
	// torn back copy (found by the crash-point sweep).
	for _, off := range tx.written {
		c.Store(tm.backAddr(off), c.Load(tm.mainAddr(off)))
	}
	backLines := map[pmem.Addr]bool{}
	for _, off := range tx.written {
		a := tm.backAddr(off)
		line := a / pmem.LineBytes * pmem.LineBytes
		if !backLines[line] {
			backLines[line] = true
			c.PWB(tm.s.back, a)
		}
	}
	c.PFence()
	c.Store(tm.stateAddr, stateIdle)
	c.PWB(tm.s.state, tm.stateAddr)
	c.PSync()
}

// ReadOnly runs fn under the shared reader lock.
func (tm *TM) ReadOnly(ctx *pmem.ThreadCtx, fn func(tx *Tx)) {
	tm.mu.RLock()
	defer tm.mu.RUnlock()
	fn(&Tx{tm: tm, ctx: ctx})
}

// Invoke performs the system-side invocation step for thread tid and
// returns the operation's sequence number.
func (tm *TM) Invoke(ctx *pmem.ThreadCtx) uint64 {
	line := tm.invokeBase + pmem.Addr(ctx.TID()*pmem.LineBytes)
	seq := ctx.Load(line) + 1
	ctx.StoreDurable(tm.s.seq, line, seq)
	return seq
}

// InvokeSeq reads thread tid's last invocation sequence number.
func (tm *TM) InvokeSeq(ctx *pmem.ThreadCtx) uint64 {
	return ctx.Load(tm.invokeBase + pmem.Addr(ctx.TID()*pmem.LineBytes))
}

// doneOff returns the offsets of a thread's transactional (doneSeq, result)
// pair.
func doneOff(tid int) (seqOff, resOff Off) {
	base := Off(regPerTh + perThreadSz*tid)
	return base, base + 1
}

// RecordResult stores the operation's (sequence, result) pair inside the
// transaction, making the response part of the atomic commit.
func (tx *Tx) RecordResult(tid int, seq, result uint64) {
	seqOff, resOff := doneOff(tid)
	tx.Write(seqOff, seq)
	tx.Write(resOff, result)
}

// CommittedResult reports whether thread tid's operation with the given
// sequence number committed, and its result.
func (tm *TM) CommittedResult(ctx *pmem.ThreadCtx, seq uint64) (uint64, bool) {
	seqOff, resOff := doneOff(ctx.TID())
	if ctx.Load(tm.mainAddr(seqOff)) != seq {
		return 0, false
	}
	return ctx.Load(tm.mainAddr(resOff)), true
}

// List is a sorted linked-list set stored inside a Romulus TM. Node layout:
// word 0 key, word 1 next offset. The head node's offset is fixed by
// construction (the first allocation).
type List struct {
	tm   *TM
	head Off
}

const (
	lKey  = 0
	lNext = 1
	lLen  = 2
)

// NewList creates a TM-backed list. It must be called once, right after
// NewTM, on the same region.
func NewList(tm *TM, ctx *pmem.ThreadCtx) *List {
	l := &List{tm: tm}
	tm.Update(ctx, func(tx *Tx) {
		head := tx.Alloc(lLen)
		tail := tx.Alloc(lLen)
		tx.Write(head+lKey, keyBits(math.MinInt64))
		tx.Write(head+lNext, uint64(tail))
		tx.Write(tail+lKey, keyBits(math.MaxInt64))
		l.head = head
	})
	return l
}

// AttachList reconstructs the list handle on a recovered TM. The head is
// the first allocation of the region.
func AttachList(tm *TM) *List {
	return &List{tm: tm, head: Off(regPerTh + perThreadSz*tm.maxThreads)}
}

func (l *List) window(tx *Tx, key int64) (pred, curr Off) {
	pred = l.head
	curr = Off(tx.Read(pred + lNext))
	for int64(tx.Read(curr+lKey)) < key {
		pred = curr
		curr = Off(tx.Read(curr + lNext))
	}
	return pred, curr
}

// Insert adds key; the response is recorded transactionally under seq.
func (l *List) Insert(ctx *pmem.ThreadCtx, seq uint64, key int64) bool {
	var res bool
	l.tm.Update(ctx, func(tx *Tx) {
		pred, curr := l.window(tx, key)
		if int64(tx.Read(curr+lKey)) == key {
			res = false
		} else {
			nd := tx.Alloc(lLen)
			tx.Write(nd+lKey, keyBits(key))
			tx.Write(nd+lNext, uint64(curr))
			tx.Write(pred+lNext, uint64(nd))
			res = true
		}
		tx.RecordResult(ctx.TID(), seq, b2u(res))
	})
	return res
}

// Delete removes key.
func (l *List) Delete(ctx *pmem.ThreadCtx, seq uint64, key int64) bool {
	var res bool
	l.tm.Update(ctx, func(tx *Tx) {
		pred, curr := l.window(tx, key)
		if int64(tx.Read(curr+lKey)) != key {
			res = false
		} else {
			tx.Write(pred+lNext, tx.Read(curr+lNext))
			res = true
		}
		tx.RecordResult(ctx.TID(), seq, b2u(res))
	})
	return res
}

// GroupOp is one list operation of a batched group commit. Seq is the
// operation's invocation sequence number (from TM.Invoke); Res receives
// the operation's result.
type GroupOp struct {
	Seq    uint64
	Key    int64
	Delete bool // delete instead of insert
	Res    bool
}

// ApplyGroup commits ops in order as one UpdateGroup: one state cycle and
// one write-combining epoch cover the whole group, amortizing the
// protocol's three syncs over len(ops) operations. Each op's response is
// recorded transactionally under its own sequence number, exactly as the
// per-op Insert/Delete paths record theirs.
func (l *List) ApplyGroup(ctx *pmem.ThreadCtx, ops []GroupOp) {
	if len(ops) == 0 {
		return
	}
	fns := make([]func(tx *Tx), len(ops))
	for i := range ops {
		op := &ops[i]
		fns[i] = func(tx *Tx) {
			pred, curr := l.window(tx, op.Key)
			if op.Delete {
				if op.Res = int64(tx.Read(curr+lKey)) == op.Key; op.Res {
					tx.Write(pred+lNext, tx.Read(curr+lNext))
				}
			} else {
				if op.Res = int64(tx.Read(curr+lKey)) != op.Key; op.Res {
					nd := tx.Alloc(lLen)
					tx.Write(nd+lKey, keyBits(op.Key))
					tx.Write(nd+lNext, uint64(curr))
					tx.Write(pred+lNext, uint64(nd))
				}
			}
			tx.RecordResult(ctx.TID(), op.Seq, b2u(op.Res))
		}
	}
	l.tm.UpdateGroup(ctx, fns...)
}

// Find reports membership. Read-only transactions are not recorded; their
// recovery simply re-executes (always safe).
func (l *List) Find(ctx *pmem.ThreadCtx, key int64) bool {
	var res bool
	l.tm.ReadOnly(ctx, func(tx *Tx) {
		_, curr := l.window(tx, key)
		res = int64(tx.Read(curr+lKey)) == key
	})
	return res
}

// Keys returns the current keys (diagnostic).
func (l *List) Keys(ctx *pmem.ThreadCtx) []int64 {
	var out []int64
	l.tm.ReadOnly(ctx, func(tx *Tx) {
		curr := Off(tx.Read(l.head + lNext))
		for {
			k := int64(tx.Read(curr + lKey))
			if k == math.MaxInt64 {
				return
			}
			out = append(out, k)
			curr = Off(tx.Read(curr + lNext))
		}
	})
	return out
}

func keyBits(k int64) uint64 { return uint64(k) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
