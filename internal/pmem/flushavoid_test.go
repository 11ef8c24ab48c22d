package pmem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// faEquivalenceSeed drives one random op stream over the dirty-discipline
// API through two strict-mode pools — flush avoidance off and on — and
// requires byte-identical durable views at every psync boundary and across
// a final crash under the same seeded adversary. In ModeStrict the dirty
// tag is never set, so flush avoidance must be inert: StoreDirty/CASDirty
// degrade to Store/CAS, PWBFirst to PWB, LoadAndPersist to Load.
func faEquivalenceSeed(seed int) error {
	newPool := func(fa bool) *Pool {
		p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 2})
		p.SetFlushAvoid(fa)
		return p
	}
	plain, avoid := newPool(false), newPool(true)
	pctx, actx := plain.NewThread(0), avoid.NewThread(0)
	ps, as := plain.RegisterSite("op"), avoid.RegisterSite("op")
	const words = 64
	pa, aa := pctx.AllocWords(words), actx.AllocWords(words)
	if pa != aa {
		return fmt.Errorf("arenas diverge: %#x vs %#x", uint64(pa), uint64(aa))
	}

	rng := rand.New(rand.NewSource(int64(seed)))
	for op := 0; op < 400; op++ {
		w := Addr(rng.Intn(words)) * WordSize
		switch rng.Intn(10) {
		case 0, 1:
			v := rng.Uint64()
			pctx.Store(pa+w, v)
			actx.Store(aa+w, v)
		case 2, 3:
			v := rng.Uint64() &^ DirtyBit
			pctx.StoreDirty(pa+w, v)
			actx.StoreDirty(aa+w, v)
		case 4:
			old := pctx.Load(pa + w)
			nv := rng.Uint64() &^ DirtyBit
			p1, ok1 := pctx.CASDirty(pa+w, old, nv)
			p2, ok2 := actx.CASDirty(aa+w, old, nv)
			if p1 != p2 || ok1 != ok2 {
				return fmt.Errorf("op %d: CASDirty diverges (%d,%v) vs (%d,%v)", op, p1, ok1, p2, ok2)
			}
		case 5:
			pctx.PWB(ps, pa+w)
			actx.PWB(as, aa+w)
		case 6:
			pctx.PWBFirst(ps, pa+w)
			actx.PWBFirst(as, aa+w)
		case 7:
			v1 := pctx.LoadAndPersist(ps, pa+w)
			v2 := actx.LoadAndPersist(as, aa+w)
			if v1 != v2 {
				return fmt.Errorf("op %d: LoadAndPersist diverges %d vs %d", op, v1, v2)
			}
		case 8:
			pctx.PFence()
			actx.PFence()
		case 9:
			pctx.PSync()
			actx.PSync()
			if err := compareDurable(plain, avoid, words); err != nil {
				return fmt.Errorf("op %d (psync): %w", op, err)
			}
		}
	}
	// Crash both pools under the same seeded adversary: the pending
	// write-back sets and dirty lines must have been identical, so the
	// adjudicated durable views must be too.
	plain.TriggerCrash()
	avoid.TriggerCrash()
	plain.Crash(CrashPolicy{Rng: rand.New(rand.NewSource(int64(seed) + 1)), CommitProb: 0.5, EvictProb: 0.25})
	avoid.Crash(CrashPolicy{Rng: rand.New(rand.NewSource(int64(seed) + 1)), CommitProb: 0.5, EvictProb: 0.25})
	if err := compareDurable(plain, avoid, words); err != nil {
		return fmt.Errorf("post-crash: %w", err)
	}
	plain.Recover()
	avoid.Recover()
	return compareDurable(plain, avoid, words)
}

// TestFlushAvoidDurableStateEquivalence pins the strict-mode inertness of
// flush avoidance over 100 seeds (satellite b): enabling the feature on a
// strict pool must not change a single durable byte, at any psync or
// across any crash.
func TestFlushAvoidDurableStateEquivalence(t *testing.T) {
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
			if err := faEquivalenceSeed(seed); err != nil {
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

// TestFlushAvoidCounterExclusivity pins the telemetry contract (satellite
// a): every recorded write-back lands in exactly one of executed, merged,
// or elided — executed + merged + elided == recorded — over a seeded
// ModeFast run that exercises the elision paths and a write-combining
// batch window, with no NoSite traffic inside the measured window.
func TestFlushAvoidCounterExclusivity(t *testing.T) {
	p := New(Config{Mode: ModeFast, CapacityWords: 1 << 12, MaxThreads: 2})
	p.SetFlushAvoid(true)
	ctx := p.NewThread(0)
	s := p.RegisterSite("op")
	const words = 64
	base := ctx.AllocWords(words)

	snap := p.Snapshot() // construction/alloc NoSite traffic stays out
	rng := rand.New(rand.NewSource(7))
	batched := false
	for op := 0; op < 2000; op++ {
		w := base + Addr(rng.Intn(words))*WordSize
		switch rng.Intn(10) {
		case 0, 1:
			ctx.StoreDirty(w, rng.Uint64()&^DirtyBit)
		case 2, 3:
			ctx.PWBFirst(s, w)
		case 4:
			ctx.LoadAndPersist(s, w)
		case 5, 6:
			ctx.PWB(s, w)
		case 7:
			ctx.PSync()
		case 8:
			ctx.PWBRange(s, base, 1+rng.Intn(8))
		case 9:
			if batched {
				ctx.EndBatch()
			} else {
				ctx.BeginBatch(2) // line bound 8
			}
			batched = !batched
		}
	}
	if batched {
		ctx.EndBatch()
	}
	ctx.PSync()
	st := p.Snapshot().Sub(snap)
	if st.PWBsElided == 0 {
		t.Fatal("the stream never elided a flush; the test lost its teeth")
	}
	if st.PWBsMerged == 0 {
		t.Fatal("the stream never merged a flush; the test lost its teeth")
	}
	if got := st.PWBsExecuted + st.PWBsMerged + st.PWBsElided; got != st.PWBs {
		t.Fatalf("executed %d + merged %d + elided %d = %d, want recorded %d",
			st.PWBsExecuted, st.PWBsMerged, st.PWBsElided, got, st.PWBs)
	}
}

// TestFlushAvoidStrictCountersStayZero pins the other half of the
// telemetry contract: a strict pool with flush avoidance on never elides
// (the dirty tag is never set), so the elision counter stays zero no
// matter what the workload does.
func TestFlushAvoidStrictCountersStayZero(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 2})
	p.SetFlushAvoid(true)
	ctx := p.NewThread(0)
	s := p.RegisterSite("op")
	base := ctx.AllocWords(8)
	for i := 0; i < 200; i++ {
		ctx.StoreDirty(base, uint64(i))
		ctx.PWBFirst(s, base)
		ctx.LoadAndPersist(s, base)
		ctx.PWB(s, base)
		ctx.PSync()
	}
	st := p.Snapshot()
	if st.PWBsElided != 0 {
		t.Fatalf("strict pool elided %d flushes; the dirty tag leaked into ModeStrict", st.PWBsElided)
	}
	if v := p.DurableLoad(base); v&DirtyBit != 0 && v != 199 {
		t.Fatalf("durable word carries unexpected state %#x", v)
	}
}

// TestLoadAndPersistFirstObserver exercises the two-thread race at the
// substrate level: the writer dies (figuratively — it simply stops)
// between its dirty store and its flush, and the first reader issues the
// line's only flush while later readers skip it.
func TestLoadAndPersistFirstObserver(t *testing.T) {
	p := New(Config{Mode: ModeFast, CapacityWords: 1 << 12, MaxThreads: 3})
	p.SetFlushAvoid(true)
	w := p.NewThread(0)
	a := w.AllocLines(1)
	s := p.RegisterSite("op")
	w.StoreDirty(a, 44)
	// No PWBFirst: the writer never flushes.

	r1 := p.NewThread(1)
	base := p.Snapshot()
	if v := r1.LoadAndPersist(s, a); v != 44 {
		t.Fatalf("first observer read %d, want 44 (dirty bit must be masked)", v)
	}
	st := p.Snapshot().Sub(base)
	if st.PWBsBySite["op"] != 1 || st.PWBsExecuted != 1 {
		t.Fatalf("first observer recorded %d / executed %d, want 1 / 1",
			st.PWBsBySite["op"], st.PWBsExecuted)
	}
	r2 := p.NewThread(2)
	base = p.Snapshot()
	if v := r2.LoadAndPersist(s, a); v != 44 {
		t.Fatalf("second observer read %d, want 44", v)
	}
	st = p.Snapshot().Sub(base)
	if st.PWBsBySite["op"] != 0 || st.PWBsExecuted != 0 {
		t.Fatalf("second observer recorded %d / executed %d on a clean word, want 0 / 0",
			st.PWBsBySite["op"], st.PWBsExecuted)
	}
}

// TestLoadAndPersistNoAllocs pins the zero-allocation contract of the hot
// path (satellite f), on both the clean fast path and the dirty slow path.
func TestLoadAndPersistNoAllocs(t *testing.T) {
	p := New(Config{Mode: ModeFast, CapacityWords: 1 << 12, MaxThreads: 2})
	p.SetFlushAvoid(true)
	ctx := p.NewThread(0)
	a := ctx.AllocLines(1)
	s := p.RegisterSite("op")
	ctx.Store(a, 7)
	if n := testing.AllocsPerRun(1000, func() { ctx.LoadAndPersist(s, a) }); n != 0 {
		t.Fatalf("clean LoadAndPersist allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		ctx.StoreDirty(a, 7)
		ctx.LoadAndPersist(s, a)
	}); n != 0 {
		t.Fatalf("dirty LoadAndPersist allocates %v per run", n)
	}
}

// BenchmarkLoadAndPersist measures the clean-word hot path of the
// first-observer read against BenchmarkLoad: the only extra work is the
// dirty-bit test on the loaded value, so it must stay within 2x of a plain
// Load (pinned by the flushavoid substrate points in BENCH_pmem.json).
func BenchmarkLoadAndPersist(b *testing.B) {
	for _, g := range benchGoroutines {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			p := New(Config{Mode: ModeFast, CapacityWords: 1 << 16, MaxThreads: g + 1})
			p.SetFlushAvoid(true)
			s := p.RegisterSite("bench/site")
			ctxs := make([]*ThreadCtx, g)
			bases := make([]Addr, g)
			for t := 0; t < g; t++ {
				ctxs[t] = p.NewThread(t)
				bases[t] = ctxs[t].AllocLines(benchLanes)
			}
			per := b.N / g
			b.ResetTimer()
			var wg sync.WaitGroup
			for t := 0; t < g; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					n := per
					if t == 0 {
						n += b.N - per*g
					}
					ctx, base := ctxs[t], bases[t]
					for i := 0; i < n; i++ {
						ctx.LoadAndPersist(s, laneAddr(base, i))
					}
				}(t)
			}
			wg.Wait()
		})
	}
}
