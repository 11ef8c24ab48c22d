package pmem

import (
	"testing"
)

// catchCrash runs f and reports whether it panicked with ErrCrashed.
func catchCrash(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != ErrCrashed {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

func TestSetCrashAtSiteFiresAtExactHit(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 1})
	s := p.RegisterSite("sc/a")
	other := p.RegisterSite("sc/b")
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)

	p.SetCrashAtSite(s, 3)
	for i := 1; i <= 2; i++ {
		ctx.Store(a, uint64(i))
		if catchCrash(func() { ctx.PWB(s, a) }) {
			t.Fatalf("crash fired at hit %d, armed for 3", i)
		}
		// Hits of other sites must not advance the countdown.
		if catchCrash(func() { ctx.PWB(other, a) }) {
			t.Fatal("crash fired on a different site")
		}
	}
	if _, rem, armed := p.CrashSiteArmed(); !armed || rem != 1 {
		t.Fatalf("armed=%v remaining=%d, want armed with 1 left", armed, rem)
	}
	ctx.Store(a, 3)
	if !catchCrash(func() { ctx.PWB(s, a) }) {
		t.Fatal("crash did not fire at the 3rd hit")
	}
	if !p.CrashPending() {
		t.Fatal("crash not pending after the trigger fired")
	}
	if _, _, armed := p.CrashSiteArmed(); armed {
		t.Fatal("trigger still armed after firing")
	}

	// The targeted write-back was scheduled before the crash: with a
	// commit-everything adversary the third store is durable.
	p.Crash(CrashPolicy{CommitAll: true})
	p.Recover()
	ctx2 := p.NewThread(0)
	if got := ctx2.Load(a); got != 3 {
		t.Fatalf("after CommitAll recovery Load = %d, want 3", got)
	}
}

func TestSetCrashAtSiteWorstCaseDropsTargetedWriteback(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 1})
	s := p.RegisterSite("sc/w")
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)

	ctx.Store(a, 7)
	ctx.PWB(s, a)
	ctx.PSync() // durable: 7

	p.SetCrashAtSite(s, 1) // fire at the next hit of s
	ctx.Store(a, 8)
	if !catchCrash(func() { ctx.PWB(s, a) }) {
		t.Fatal("crash did not fire")
	}
	p.Crash(CrashPolicy{}) // worst case: the un-synced write-back is lost
	p.Recover()
	if got := p.NewThread(0).Load(a); got != 7 {
		t.Fatalf("worst-case recovery Load = %d, want 7", got)
	}
}

func TestSetCrashAtSiteDisarm(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 1})
	s := p.RegisterSite("sc/d")
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)

	p.SetCrashAtSite(s, 1)
	p.SetCrashAtSite(NoSite, 0)
	if _, _, armed := p.CrashSiteArmed(); armed {
		t.Fatal("still armed after disarm")
	}
	ctx.Store(a, 1)
	if catchCrash(func() { ctx.PWB(s, a) }) {
		t.Fatal("disarmed trigger fired")
	}
}

func TestSetCrashAtSiteBeyondHitsNeverFires(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 1})
	s := p.RegisterSite("sc/n")
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)

	p.SetCrashAtSite(s, 100)
	for i := 0; i < 5; i++ {
		ctx.Store(a, uint64(i))
		if catchCrash(func() { ctx.PWB(s, a) }) {
			t.Fatal("fired early")
		}
	}
	ctx.PSync()
	if _, rem, armed := p.CrashSiteArmed(); !armed || rem != 95 {
		t.Fatalf("armed=%v remaining=%d, want armed with 95", armed, rem)
	}
}

func TestSetCrashAtSiteDisabledSiteNeverFires(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 1})
	s := p.RegisterSite("sc/off")
	p.SetSiteEnabled(s, false)
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)

	p.SetCrashAtSite(s, 1)
	ctx.Store(a, 1)
	if catchCrash(func() { ctx.PWB(s, a) }) {
		t.Fatal("disabled site's PWB fired the trigger")
	}
}

func TestSetCrashAtSiteStoreDurableAndRange(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 1})
	s := p.RegisterSite("sc/sd")
	ctx := p.NewThread(0)
	a := ctx.AllocLines(3)

	// PWBRange counts one hit per covered line.
	p.SetCrashAtSite(s, 3)
	if !catchCrash(func() { ctx.PWBRange(s, a, 3*LineWords) }) {
		t.Fatal("range trigger did not fire at the 3rd covered line")
	}
	p.Crash(CrashPolicy{})
	p.Recover()

	// StoreDurable hits count too.
	ctx2 := p.NewThread(0)
	p.SetCrashAtSite(s, 1)
	if !catchCrash(func() { ctx2.StoreDurable(s, a, 9) }) {
		t.Fatal("StoreDurable did not fire the trigger")
	}
	p.Crash(CrashPolicy{})
	p.Recover()
	// StoreDurable is failure-atomic: the value is durable even though the
	// crash struck immediately after it.
	if got := p.NewThread(0).Load(a); got != 9 {
		t.Fatalf("Load = %d, want 9 (StoreDurable is failure-atomic)", got)
	}

	// Every persist entry point shares one record point: under every mode
	// and policy, each written-back line advances the site count, the
	// telemetry PWB report and the armed countdown by exactly one.
	for _, cfg := range recordPointConfigs {
		for _, ep := range recordPointEntries {
			t.Run(cfg.name+"/"+ep.name, func(t *testing.T) {
				checkRecordPoint(t, cfg, ep)
			})
		}
	}
}

// recordPointConfig is one pool set-up of the record-point table.
type recordPointConfig struct {
	name        string
	mode        Mode
	batchOps    int
	flushAvoid  bool
	dirtyTagged bool // StoreDirty sets DirtyBit (ModeFast + flush avoidance)
}

// recordPointEntry is one persist entry point; run returns how many lines
// the call wrote back (LoadAndPersist writes back only a word still
// carrying the dirty tag).
type recordPointEntry struct {
	name string
	run  func(t *testing.T, ctx *ThreadCtx, s Site, a Addr, dirtyTagged bool) int
}

var recordPointConfigs = []recordPointConfig{
	{"strict", ModeStrict, 0, false, false},
	{"strict+batch+flush-avoid", ModeStrict, 2, true, false},
	{"fast", ModeFast, 0, false, false},
	{"fast+batch", ModeFast, 2, false, false},
	{"fast+flush-avoid", ModeFast, 0, true, true},
	{"fast+batch+flush-avoid", ModeFast, 2, true, true},
}

var recordPointEntries = []recordPointEntry{
	{"PWB", func(_ *testing.T, ctx *ThreadCtx, s Site, a Addr, _ bool) int {
		ctx.PWB(s, a)
		return 1
	}},
	{"PWBRange-1", func(_ *testing.T, ctx *ThreadCtx, s Site, a Addr, _ bool) int {
		ctx.PWBRange(s, a, 2)
		return 1
	}},
	{"PWBRange-3", func(_ *testing.T, ctx *ThreadCtx, s Site, a Addr, _ bool) int {
		ctx.PWBRange(s, a+4*WordSize, 2*LineWords) // words 4..19: lines 0-2
		return 3
	}},
	{"PWBFirst", func(_ *testing.T, ctx *ThreadCtx, s Site, a Addr, _ bool) int {
		ctx.StoreDirty(a, 8)
		ctx.PWBFirst(s, a)
		return 1
	}},
	{"LoadAndPersist", func(t *testing.T, ctx *ThreadCtx, s Site, a Addr, dirtyTagged bool) int {
		ctx.StoreDirty(a, 8)
		if v := ctx.LoadAndPersist(s, a); v != 8 {
			t.Fatalf("LoadAndPersist = %#x, want the logical value 8", v)
		}
		if dirtyTagged {
			return 1
		}
		return 0
	}},
	{"StoreDurable", func(_ *testing.T, ctx *ThreadCtx, s Site, a Addr, _ bool) int {
		ctx.StoreDurable(s, a, 8)
		return 1
	}},
}

// pwbSink counts TelemetryPWB reports per site.
type pwbSink map[Site]int

func (k pwbSink) TelemetryPWB(_ int, s Site, _ int64)                { k[s]++ }
func (pwbSink) TelemetryPSync(int, int64, int64, []SiteStall)        {}
func (pwbSink) TelemetryPFence(int)                                  {}
func (pwbSink) TelemetryEvent(TelemetryEventKind, int, Site, uint64) {}

func checkRecordPoint(t *testing.T, cfg recordPointConfig, ep recordPointEntry) {
	p := New(Config{Mode: cfg.mode, CapacityWords: 1 << 12, MaxThreads: 1})
	p.SetBatchPolicy(cfg.batchOps)
	p.SetFlushAvoid(cfg.flushAvoid)
	sink := pwbSink{}
	p.SetTelemetrySink(sink)
	s := p.RegisterSite("rp")
	ctx := p.NewThread(0)
	a := ctx.AllocLines(4)
	const armed = 1000
	p.SetCrashAtSite(s, armed)
	base := p.Snapshot()
	want := 0
	// The second round finds every line already written back: the memo
	// and clean-word elision paths (and the batch merge path) take over.
	for round := 1; round <= 2; round++ {
		want += ep.run(t, ctx, s, a, cfg.dirtyTagged)
		ctx.Retire() // drain an open epoch so every charge is settled
		st := p.Snapshot().Sub(base)
		if got := st.PWBsBySite["rp"]; got != uint64(want) {
			t.Fatalf("round %d: site count %d, want %d", round, got, want)
		}
		if sink[s] != want {
			t.Fatalf("round %d: telemetry PWB reports %d, want %d", round, sink[s], want)
		}
		if _, rem, ok := p.CrashSiteArmed(); !ok || rem != armed-int64(want) {
			t.Fatalf("round %d: countdown armed=%v remaining=%d, want %d", round, ok, rem, armed-want)
		}
		if cfg.mode == ModeStrict {
			if st.PWBsDeferred+st.PWBsMerged+st.PWBsElided+st.PSyncsMerged+st.BatchDrains != 0 {
				t.Fatalf("round %d: strict batching/elision counters non-zero: %+v", round, st)
			}
		} else if got := st.PWBsExecuted + st.PWBsMerged + st.PWBsElided; got != st.PWBs {
			t.Fatalf("round %d: executed %d + merged %d + elided %d = %d, want recorded %d",
				round, st.PWBsExecuted, st.PWBsMerged, st.PWBsElided, got, st.PWBs)
		}
	}
}

// TestStoreDurableDisabledSiteNotCharged pins SetSiteEnabled's contract
// for StoreDurable: a disabled site's write-back is neither executed nor
// counted in ModeFast (executed + merged + elided == recorded stays
// exact), while the strict-mode durable commit still happens.
func TestStoreDurableDisabledSiteNotCharged(t *testing.T) {
	for _, mode := range []Mode{ModeFast, ModeStrict} {
		p := New(Config{Mode: mode, CapacityWords: 1 << 12, MaxThreads: 1})
		s := p.RegisterSite("sd/off")
		p.SetSiteEnabled(s, false)
		ctx := p.NewThread(0)
		a := ctx.AllocLines(1)
		base := p.Snapshot()
		ctx.StoreDurable(s, a, 5)
		st := p.Snapshot().Sub(base)
		if st.PWBs != 0 || st.PWBsExecuted != 0 || st.SpinUnits != 0 {
			t.Fatalf("mode %d: disabled site recorded %d, executed %d, spun %d; want 0, 0, 0",
				mode, st.PWBs, st.PWBsExecuted, st.SpinUnits)
		}
		if mode == ModeStrict && p.DurableLoad(a) != 5 {
			t.Fatalf("strict StoreDurable on a disabled site lost its durable commit")
		}
	}
}

func TestRecoverKeepsUnfiredSiteArm(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 1})
	s := p.RegisterSite("sc/keep")
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)

	p.SetCrashAtSite(s, 2)
	ctx.Store(a, 1)
	ctx.PWB(s, a) // hit 1 of 2
	p.TriggerCrash()
	p.Crash(CrashPolicy{})
	p.Recover()
	// The arm survived the unrelated crash with one hit to go.
	if _, rem, armed := p.CrashSiteArmed(); !armed || rem != 1 {
		t.Fatalf("armed=%v remaining=%d, want armed with 1 left", armed, rem)
	}
	ctx2 := p.NewThread(0)
	ctx2.Store(a, 2)
	if !catchCrash(func() { ctx2.PWB(s, a) }) {
		t.Fatal("carried-over arm did not fire")
	}
	p.Crash(CrashPolicy{})
	p.Recover()
}

func TestCommitAllMakesDurableEqualVolatile(t *testing.T) {
	p := New(Config{Mode: ModeStrict, CapacityWords: 1 << 12, MaxThreads: 2})
	s := p.RegisterSite("sc/ca")
	ctx := p.NewThread(0)
	a := ctx.AllocWords(1)
	b := ctx.AllocWords(1)

	ctx.Store(a, 1)
	ctx.PWB(s, a)   // scheduled, never synced
	ctx.Store(b, 2) // dirty, never flushed

	p.TriggerCrash()
	p.Crash(CrashPolicy{CommitAll: true})
	p.Recover()
	ctx2 := p.NewThread(0)
	if ctx2.Load(a) != 1 || ctx2.Load(b) != 2 {
		t.Fatalf("CommitAll lost state: a=%d b=%d, want 1 2", ctx2.Load(a), ctx2.Load(b))
	}
}
