package pmem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// --- fast-mode deferral and merge accounting ---

func TestBatchMergesDuplicateCharges(t *testing.T) {
	p := newFast(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("hot")
	a := ctx.AllocLines(1)

	base := p.Snapshot()
	ctx.BeginBatch(4) // line bound 16
	for i := 0; i < 10; i++ {
		ctx.PWB(s, a)
	}
	ctx.EndBatch()
	d := p.Snapshot().Sub(base)

	if d.PWBs != 10 {
		t.Fatalf("recorded PWBs = %d, want 10 (record point is batching-invariant)", d.PWBs)
	}
	if d.PWBsDeferred != 10 || d.PWBsMerged != 9 {
		t.Fatalf("deferred/merged = %d/%d, want 10/9", d.PWBsDeferred, d.PWBsMerged)
	}
	// One distinct line charged once: exactly one flush worth of spin, no sync
	// (none was deferred).
	// A line's first-ever flush carries one heat unit (lineMeta starts
	// with no owner), so one charge = PWBBase + PWBHeatUnit.
	if first := uint64(p.cost.PWBBase + p.cost.PWBHeatUnit); d.SpinUnits != first {
		t.Fatalf("spin units = %d, want one first-flush charge (%d)", d.SpinUnits, first)
	}
	if d.PSyncs != 0 || d.BatchDrains != 1 {
		t.Fatalf("psyncs/drains = %d/%d, want 0/1", d.PSyncs, d.BatchDrains)
	}
}

func TestBatchGroupPSync(t *testing.T) {
	p := newFast(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("s")
	a := ctx.AllocLines(1)

	base := p.Snapshot()
	ctx.BeginBatch(4)
	for op := 0; op < 8; op++ { // 8 ops, op bound 4: two bound-triggered drains
		ctx.PWB(s, a)
		ctx.PSync()
	}
	ctx.EndBatch()
	d := p.Snapshot().Sub(base)

	if d.PSyncs != 2 {
		t.Fatalf("executed psyncs = %d, want 2 (two group syncs)", d.PSyncs)
	}
	if d.PSyncsMerged != 6 {
		t.Fatalf("merged psyncs = %d, want 6", d.PSyncsMerged)
	}
}

func TestBatchMaxLinesDrainsMidEpoch(t *testing.T) {
	p := newFast(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("s")
	a := ctx.AllocLines(8)

	base := p.Snapshot()
	ctx.BeginBatch(1) // line bound 4; no psync, so the op bound never fires
	for i := 0; i < 8; i++ {
		ctx.PWB(s, a+Addr(i*LineWords*WordSize))
	}
	if got := ctx.DeferredLines(); got != 0 && got != 4 {
		t.Fatalf("deferred lines after 8 distinct flushes with line bound 4: %d", got)
	}
	if !ctx.InBatch() {
		t.Fatal("bound-triggered drain must keep the epoch open")
	}
	ctx.EndBatch()
	d := p.Snapshot().Sub(base)
	// 8 distinct lines: every charge executes (no duplicates), across 2 drains.
	if d.PWBsMerged != 0 || d.BatchDrains != 2 {
		t.Fatalf("merged/drains = %d/%d, want 0/2", d.PWBsMerged, d.BatchDrains)
	}
	if first := uint64(8 * (p.cost.PWBBase + p.cost.PWBHeatUnit)); d.SpinUnits != first {
		t.Fatalf("spin units = %d, want 8 first-flush charges (%d)", d.SpinUnits, first)
	}
}

func TestBatchNesting(t *testing.T) {
	p := newFast(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("s")
	a := ctx.AllocLines(4)

	ctx.BeginBatch(0)
	ctx.BeginBatch(1) // inner bound ignored: its 4-line bound would drain below
	for i := 0; i < 4; i++ {
		ctx.PWB(s, a+Addr(i*LineWords*WordSize))
	}
	ctx.EndBatch()
	if !ctx.InBatch() || ctx.DeferredLines() != 4 {
		t.Fatalf("inner EndBatch drained the epoch: inBatch=%v deferred=%d",
			ctx.InBatch(), ctx.DeferredLines())
	}
	ctx.EndBatch()
	if ctx.InBatch() || ctx.DeferredLines() != 0 {
		t.Fatal("outer EndBatch left the epoch open")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced EndBatch did not panic")
		}
	}()
	ctx.EndBatch()
}

// --- ambient pool policy ---

func TestBatchPolicyAmbient(t *testing.T) {
	p := newFast(t)
	p.SetBatchPolicy(4)
	ctx := p.NewThread(0)
	s := p.RegisterSite("s")
	a := ctx.AllocLines(1)

	base := p.Snapshot()
	for op := 0; op < 4; op++ {
		ctx.PWB(s, a)
		ctx.PSync()
	}
	d := p.Snapshot().Sub(base)
	if d.PWBsMerged != 3 || d.PSyncs != 1 || d.PSyncsMerged != 3 {
		t.Fatalf("ambient policy: merged/psyncs/psyncsMerged = %d/%d/%d, want 3/1/3",
			d.PWBsMerged, d.PSyncs, d.PSyncsMerged)
	}

	// Removing the policy closes the ambient epoch at its next drain.
	p.SetBatchPolicy(0)
	ctx.PWB(s, a)
	ctx.PSync() // still in the stale epoch or already unbatched; either way:
	ctx.Retire()
	if ctx.InBatch() {
		t.Fatal("ambient epoch survived policy removal + retire")
	}
	base = p.Snapshot()
	ctx2 := p.NewThread(1)
	ctx2.PWB(s, a)
	ctx2.PWB(s, a)
	d = p.Snapshot().Sub(base)
	if d.PWBsDeferred != 0 {
		t.Fatalf("policy removed but new thread still defers (%d)", d.PWBsDeferred)
	}
}

// --- satellite a: psync-disabled interaction ---

// TestBatchedPsyncDisabledStillDrainsInStrictMode mirrors
// TestPsyncDisabledStillCommitsInStrictMode with an open batch: disabling
// psync accounting must neither lose the strict-mode commit nor strand
// lines in the write-combining buffer.
func TestBatchedPsyncDisabledStillDrainsInStrictMode(t *testing.T) {
	p := newStrict(t)
	p.SetPsyncEnabled(false)
	ctx := p.NewThread(0)
	s := p.RegisterSite("test")
	a := ctx.AllocWords(1)

	ctx.BeginBatch(0)
	ctx.Store(a, 3)
	ctx.PWB(s, a)
	if ctx.DeferredLines() != 0 {
		t.Fatalf("deferred lines = %d, want 0 (strict mode defers nothing)", ctx.DeferredLines())
	}
	ctx.PSync()
	if v := p.DurableLoad(a); v != 3 {
		t.Fatalf("batched strict-mode psync with accounting disabled lost semantics: durable=%d", v)
	}
	if ctx.DeferredLines() != 0 {
		t.Fatalf("disabled psync stranded %d deferred lines", ctx.DeferredLines())
	}
	ctx.EndBatch()
}

// TestBatchedPsyncDisabledFastModeStillChargesFlushes checks the fast-mode
// side: with psync accounting disabled, deferred flush charges still drain
// at EndBatch (the "psync removed" experiments keep their pwbs) while no
// sync is ever counted.
func TestBatchedPsyncDisabledFastModeStillChargesFlushes(t *testing.T) {
	p := newFast(t)
	p.SetPsyncEnabled(false)
	ctx := p.NewThread(0)
	s := p.RegisterSite("s")
	a := ctx.AllocLines(1)

	base := p.Snapshot()
	ctx.BeginBatch(0)
	ctx.PWB(s, a)
	ctx.PSync()
	ctx.EndBatch()
	d := p.Snapshot().Sub(base)
	if d.PSyncs != 0 {
		t.Fatalf("disabled psync counted: %d", d.PSyncs)
	}
	if first := uint64(p.cost.PWBBase + p.cost.PWBHeatUnit); d.SpinUnits != first {
		t.Fatalf("spin units = %d, want the deferred flush charge %d", d.SpinUnits, first)
	}
}

// --- satellite b: retire guard ---

func TestRetireDrainsOpenBatch(t *testing.T) {
	p := newFast(t)
	ctx := p.NewThread(0)
	s := p.RegisterSite("s")
	a := ctx.AllocLines(1)

	base := p.Snapshot()
	ctx.BeginBatch(64)
	ctx.PWB(s, a)
	ctx.PSync()
	ctx.Retire() // EndBatch never called: retire must flush the epoch
	d := p.Snapshot().Sub(base)
	if want := uint64(p.cost.PWBBase + p.cost.PWBHeatUnit + p.cost.PSyncCost); d.SpinUnits != want {
		t.Fatalf("retire did not drain: spin units = %d, want %d", d.SpinUnits, want)
	}
	if d.PSyncs != 1 || ctx.InBatch() || ctx.DeferredLines() != 0 {
		t.Fatalf("retire left batch state: psyncs=%d inBatch=%v deferred=%d",
			d.PSyncs, ctx.InBatch(), ctx.DeferredLines())
	}
	ctx.Retire() // idempotent
}

// --- satellite c: property test ---

// TestBatchedDurableStateEquivalence drives identical random op streams
// through a batched and an unbatched strict-mode pool and requires the
// durable views to be byte-identical at every psync boundary: batching must
// not change the crash-state space. 100 seeds; seeds run on a few
// goroutines so `go test -race` also covers the batch bookkeeping.
func TestBatchedDurableStateEquivalence(t *testing.T) {
	const seeds = 100
	var wg sync.WaitGroup
	errs := make(chan error, seeds)
	sem := make(chan struct{}, 4)
	for seed := 0; seed < seeds; seed++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(seed int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := runEquivalenceSeed(seed); err != nil {
				errs <- fmt.Errorf("seed %d: %w", seed, err)
			}
		}(seed)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func runEquivalenceSeed(seed int) error {
	newPool := func() *Pool {
		return New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 2})
	}
	plain, batched := newPool(), newPool()
	batched.SetBatchPolicy(3)

	pctx, bctx := plain.NewThread(0), batched.NewThread(0)
	ps, bs := plain.RegisterSite("op"), batched.RegisterSite("op")
	const words = 64
	pa, ba := pctx.AllocWords(words), bctx.AllocWords(words)
	if pa != ba {
		return fmt.Errorf("arenas diverge: %#x vs %#x", uint64(pa), uint64(ba))
	}

	rng := rand.New(rand.NewSource(int64(seed)))
	explicit := false // an explicit batch open on top of the ambient policy
	for op := 0; op < 400; op++ {
		w := Addr(rng.Intn(words)) * WordSize
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			v := rng.Uint64()
			pctx.Store(pa+w, v)
			bctx.Store(ba+w, v)
		case 4, 5:
			pctx.PWB(ps, pa+w)
			bctx.PWB(bs, ba+w)
		case 6:
			n := 1 + rng.Intn(words-int(w/WordSize))
			pctx.PWBRange(ps, pa+w, n)
			bctx.PWBRange(bs, ba+w, n)
		case 7:
			pctx.PFence()
			bctx.PFence()
		case 8:
			pctx.PSync()
			bctx.PSync()
			if err := compareDurable(plain, batched, words); err != nil {
				return fmt.Errorf("op %d (psync): %w", op, err)
			}
		case 9:
			// Batch brackets only touch the batched pool; they must be
			// durability no-ops in strict mode.
			if explicit {
				bctx.EndBatch()
			} else {
				bctx.BeginBatch(2)
			}
			explicit = !explicit
		}
	}
	pctx.PSync()
	bctx.PSync()
	return compareDurable(plain, batched, words)
}

func compareDurable(a, b *Pool, words int) error {
	base := a.AllocatedWords() - words
	for i := base; i < base+words; i++ {
		av := a.DurableLoad(Addr(i * WordSize))
		bv := b.DurableLoad(Addr(i * WordSize))
		if av != bv {
			return fmt.Errorf("durable word %d: unbatched=%d batched=%d", i, av, bv)
		}
	}
	return nil
}
