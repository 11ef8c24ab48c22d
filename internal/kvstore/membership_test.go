package kvstore_test

import (
	"strings"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// rhashPWBs sums the write-backs recorded at the tracking engine's sites
// (the store's index shares the "rhash" prefix).
func rhashPWBs(pool *pmem.Pool) uint64 {
	var n uint64
	for label, c := range pool.Snapshot().PWBsBySite {
		if strings.HasPrefix(label, "rhash/") {
			n += c
		}
	}
	return n
}

// preloaded builds a 4-shard store holding keys 1..n and returns it with
// the handle that loaded it.
func preloaded(t *testing.T, pool *pmem.Pool, n int) (*kvstore.Store, *kvstore.Handle) {
	t.Helper()
	s, err := kvstore.New(pool, kvstore.Config{Shards: 4, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handle(pool.NewThread(1))
	for k := int64(1); k <= int64(n); k++ {
		h.Invoke()
		if absent, err := h.Put(k, valueFor(k), kvstore.NoExpiry); err != nil || !absent {
			t.Fatalf("preload put %d = (%v, %v)", k, absent, err)
		}
	}
	return s, h
}

// TestMembershipPreservingOpsSkipIndex pins which operations reach the
// tracking index: Gets (hits and misses), overwriting Puts and Deletes of
// absent keys consume no pool words and record no index write-back, while
// a fresh Put and a Delete of a present key still go through it.
func TestMembershipPreservingOpsSkipIndex(t *testing.T) {
	const n = 40
	pool := newPool(1<<18, 4)
	_, h := preloaded(t, pool, n)
	words, idx := pool.AllocatedWords(), rhashPWBs(pool)
	for k := int64(1); k <= n; k++ {
		if v, ok := h.Get(k); !ok || v != valueFor(k) {
			t.Fatalf("get %d = (%d, %v)", k, v, ok)
		}
		if _, ok := h.Get(k + 1000); ok {
			t.Fatalf("get of absent key %d hit", k+1000)
		}
		if absent, err := h.Put(k, valueFor(k)+1, kvstore.NoExpiry); err != nil || absent {
			t.Fatalf("overwrite %d = (%v, %v), want (false, nil)", k, absent, err)
		}
		if present, err := h.Delete(k + 1000); err != nil || present {
			t.Fatalf("delete of absent key %d = (%v, %v), want (false, nil)", k+1000, present, err)
		}
	}
	if got := pool.AllocatedWords(); got != words {
		t.Fatalf("membership-preserving ops allocated %d pool words", got-words)
	}
	if got := rhashPWBs(pool); got != idx {
		t.Fatalf("membership-preserving ops recorded %d index pwbs", got-idx)
	}
	if v, ok := h.Get(7); !ok || v != valueFor(7)+1 {
		t.Fatalf("get after overwrite = (%d, %v)", v, ok)
	}

	if absent, err := h.Put(5000, 1, kvstore.NoExpiry); err != nil || !absent {
		t.Fatalf("fresh put = (%v, %v), want (true, nil)", absent, err)
	}
	afterPut := rhashPWBs(pool)
	if afterPut == idx {
		t.Fatal("fresh put recorded no index pwbs")
	}
	if present, err := h.Delete(5000); err != nil || !present {
		t.Fatalf("delete of present key = (%v, %v), want (true, nil)", present, err)
	}
	if rhashPWBs(pool) == afterPut {
		t.Fatal("delete of a present key recorded no index pwbs")
	}
}

// TestGetOnExhaustedPool checks that reads need no pool memory: with every
// word of the pool allocated, Get and RecoverGet still answer.
func TestGetOnExhaustedPool(t *testing.T) {
	const n = 20
	pool := newPool(1<<16, 4)
	s, _ := preloaded(t, pool, n)
	pool.NewThread(3).AllocWords(pool.CapacityWords() - pool.AllocatedWords())
	if pool.AllocatedWords() != pool.CapacityWords() {
		t.Fatalf("pool not exhausted: %d of %d words", pool.AllocatedWords(), pool.CapacityWords())
	}
	h := s.Handle(pool.NewThread(2))
	for k := int64(1); k <= n; k++ {
		if v, ok := h.Get(k); !ok || v != valueFor(k) {
			t.Fatalf("get %d = (%d, %v)", k, v, ok)
		}
		if v, ok := h.RecoverGet(k); !ok || v != valueFor(k) {
			t.Fatalf("recover get %d = (%d, %v)", k, v, ok)
		}
		if _, ok := h.Get(-k); ok {
			t.Fatalf("get of absent key %d hit", -k)
		}
	}
}

// crashAndRecover crashes op (armed by the caller) on a fresh thread,
// resolves the crash under the seeded adversary, re-attaches the store and
// returns it with a handle for thread 1, the crashed op's owner.
func crashAndRecover(t *testing.T, pool *pmem.Pool, op func()) (*kvstore.Store, *kvstore.Handle) {
	return crashAndRecoverWith(t, pool, crashPolicy(1), op)
}

func crashAndRecoverWith(t *testing.T, pool *pmem.Pool, pol pmem.CrashPolicy, op func()) (*kvstore.Store, *kvstore.Handle) {
	t.Helper()
	crashed := runToCrash(op)
	pool.SetCrashAfter(0)
	pool.SetCrashAtSite(pmem.NoSite, 0)
	if !crashed {
		t.Fatal("armed crash did not fire")
	}
	pool.Crash(pol)
	pool.Recover()
	r, err := kvstore.Recover(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, r.Handle(pool.NewThread(1))
}

// The stale-checkpoint regressions: the thread's last index operation is a
// fresh Put that returned true, so its tracking checkpoint holds a true
// result. The next operation never reaches the index; after Invoke its
// recovery must answer for itself, not replay that checkpoint.
const (
	staleFresh = int64(900) // the fresh Put whose checkpoint goes stale
	staleLive  = int64(3)   // a preloaded key
	staleGone  = int64(901) // a key never stored
)

func staleSetup(t *testing.T) (*pmem.Pool, *kvstore.Handle) {
	t.Helper()
	pool := newPool(1<<18, 4)
	_, h := preloaded(t, pool, 10)
	h.Invoke()
	if absent, err := h.Put(staleFresh, valueFor(staleFresh), kvstore.NoExpiry); err != nil || !absent {
		t.Fatalf("fresh put = (%v, %v), want (true, nil)", absent, err)
	}
	h.Invoke()
	return pool, h
}

func TestRecoverPutOverwriteAfterFreshPut(t *testing.T) {
	pool, h := staleSetup(t)
	const val = 4242
	pool.SetCrashAtSite(pool.RegisterSite("kvstore/pwb-slot"), 1)
	_, rh := crashAndRecover(t, pool, func() {
		if _, err := h.Put(staleLive, val, kvstore.NoExpiry); err != nil {
			panic(err)
		}
	})
	if absent, err := rh.RecoverPut(staleLive, val, kvstore.NoExpiry); err != nil || absent {
		t.Fatalf("recovered overwrite = (%v, %v), want (false, nil)", absent, err)
	}
	if v, ok := rh.Get(staleLive); !ok || v != val {
		t.Fatalf("get after recovered overwrite = (%d, %v), want (%d, true)", v, ok, val)
	}
}

func TestRecoverDeleteAbsentAfterFreshPut(t *testing.T) {
	pool, h := staleSetup(t)
	pool.SetCrashAfter(1) // the first slot load of the probe
	_, rh := crashAndRecover(t, pool, func() {
		if _, err := h.Delete(staleGone); err != nil {
			panic(err)
		}
	})
	if present, err := rh.RecoverDelete(staleGone); err != nil || present {
		t.Fatalf("recovered absent-key delete = (%v, %v), want (false, nil)", present, err)
	}
	if v, ok := rh.Get(staleFresh); !ok || v != valueFor(staleFresh) {
		t.Fatalf("get of the fresh key = (%d, %v)", v, ok)
	}
}

func TestRecoverGetMidProbeAfterFreshPut(t *testing.T) {
	pool, h := staleSetup(t)
	pool.SetCrashAfter(1) // the first slot load of the probe
	_, rh := crashAndRecover(t, pool, func() { h.Get(staleGone) })
	if v, ok := rh.RecoverGet(staleGone); ok {
		t.Fatalf("recovered get of absent key = (%d, true)", v)
	}
	if v, ok := rh.RecoverGet(staleLive); !ok || v != valueFor(staleLive) {
		t.Fatalf("recovered get of live key = (%d, %v)", v, ok)
	}
}

// The resolution races: after store recovery, another thread may change
// the interrupted operation's key before its owner resolves it. The
// owner's recovery function must report its own result without undoing
// that later operation.

func TestRecoverPutAfterOtherDelete(t *testing.T) {
	pool := newPool(1<<18, 4)
	_, h := preloaded(t, pool, 10)
	h.Invoke()
	pool.SetCrashAtSite(pool.RegisterSite("kvstore/pwb-ttl"), 1) // index insert done
	r, rh := crashAndRecover(t, pool, func() {
		if _, err := h.Put(staleFresh, valueFor(staleFresh), 99); err != nil {
			panic(err)
		}
	})
	other := r.Handle(pool.NewThread(2))
	other.Invoke()
	if present, err := other.Delete(staleFresh); err != nil || !present {
		t.Fatalf("other thread's delete = (%v, %v), want (true, nil)", present, err)
	}
	if absent, err := rh.RecoverPut(staleFresh, valueFor(staleFresh), 99); err != nil || !absent {
		t.Fatalf("recovered put = (%v, %v), want (true, nil)", absent, err)
	}
	if v, ok := rh.Get(staleFresh); ok {
		t.Fatalf("recovered put resurrected the deleted key with value %d", v)
	}
	if err := r.CheckInvariants(pool.NewThread(3), true); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverDeleteAfterOtherPut(t *testing.T) {
	pool := newPool(1<<18, 4)
	_, h := preloaded(t, pool, 10)
	h.Invoke()
	pool.SetCrashAtSite(pool.RegisterSite("kvstore/pwb-slot"), 1) // the tombstone
	r, rh := crashAndRecover(t, pool, func() {
		if _, err := h.Delete(staleLive); err != nil {
			panic(err)
		}
	})
	other := r.Handle(pool.NewThread(2))
	other.Invoke()
	if absent, err := other.Put(staleLive, 31, kvstore.NoExpiry); err != nil || !absent {
		t.Fatalf("other thread's put = (%v, %v), want (true, nil)", absent, err)
	}
	if present, err := rh.RecoverDelete(staleLive); err != nil || !present {
		t.Fatalf("recovered delete = (%v, %v), want (true, nil)", present, err)
	}
	if v, ok := rh.Get(staleLive); !ok || v != 31 {
		t.Fatalf("get after recovered delete = (%d, %v), want the other thread's (31, true)", v, ok)
	}
	if err := r.CheckInvariants(pool.NewThread(3), true); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverPendingInsertBeforeResolution crashes a fresh Put right after
// its index insert tagged its first node, with every unsynced write-back
// dropped: the descriptor is durable, its tag is not. Store recovery must
// finish that insert before reconciling, so the key is consistently
// present to other threads before its owner resolves the Put.
func TestRecoverPendingInsertBeforeResolution(t *testing.T) {
	pool := newPool(1<<18, 4)
	_, h := preloaded(t, pool, 10)
	h.Invoke()
	pool.SetCrashAtSite(pool.RegisterSite("rhash/pwb-info-tag"), 1)
	r, rh := crashAndRecoverWith(t, pool, pmem.CrashPolicy{}, func() {
		if _, err := h.Put(staleFresh, valueFor(staleFresh), kvstore.NoExpiry); err != nil {
			panic(err)
		}
	})
	if err := r.CheckInvariants(pool.NewThread(3), false); err != nil {
		t.Fatal(err)
	}
	if v, ok := rh.Get(staleFresh); !ok || v != valueFor(staleFresh) {
		t.Fatalf("get before resolution = (%d, %v), want (%d, true)", v, ok, valueFor(staleFresh))
	}
	if absent, err := rh.RecoverPut(staleFresh, valueFor(staleFresh), kvstore.NoExpiry); err != nil || !absent {
		t.Fatalf("recovered put = (%v, %v), want (true, nil)", absent, err)
	}
	if err := r.CheckInvariants(pool.NewThread(3), true); err != nil {
		t.Fatal(err)
	}
}
