package main

import (
	"fmt"

	"repro/internal/pmem"
	"repro/internal/rhash"
	"repro/internal/rmm"
)

// Probe sizes: each probe times this many calls.
const (
	probeOps = 20000
	// defaultBuckets is kvstore's default rhash bucket count per shard,
	// which storeConfig keeps.
	defaultBuckets = 8
	probeWords     = 1 << 22
)

// probeRhash times the index layer alone: a standalone rhash map holding
// the preloaded keys that route to store shard 0, with the store's bucket
// count, driven by the workload's own request stream filtered to that
// shard. Gets map to Find, Puts to Insert and Deletes to Delete; CAS never
// touches the index and is skipped. It returns median ns per call kind.
func (b *bench) probeRhash() (map[string]float64, error) {
	w := b.opt.w
	pool := pmem.New(pmem.Config{Mode: b.mode(), CapacityWords: probeWords, MaxThreads: 2})
	m := rhash.New(pool, defaultBuckets, 2, 0)
	h := m.Handle(pool.NewThread(1))
	for _, k := range preloadKeys(w, b.opt.seed) {
		if b.store.ShardOf(k) == 0 {
			h.Insert(k)
		}
	}
	stream := newOpStream(w, splitmix64(b.opt.seed^0x9b0be), 0)
	root := b.ctl.begin("probe.rhash", -1, 0)
	durs := map[string][]float64{}
	for n := 0; n < probeOps; {
		o := stream.next()
		if o.kind == opCAS || b.store.ShardOf(o.key) != 0 {
			continue
		}
		name := [...]string{opGet: "rhash.find", opPut: "rhash.insert", opDelete: "rhash.delete"}[o.kind]
		t0 := now()
		switch o.kind {
		case opGet:
			h.Find(o.key)
		case opPut:
			h.Insert(o.key)
		case opDelete:
			h.Delete(o.key)
		}
		t1 := now()
		b.ctl.record(name, t0, t1, root, int64(n))
		durs[name] = append(durs[name], float64(t1-t0))
		n++
	}
	b.ctl.end(root)
	if err := m.CheckInvariants(pool.NewThread(0), true); err != nil {
		return nil, fmt.Errorf("rhash probe: %w", err)
	}
	out := map[string]float64{}
	for _, name := range []string{"rhash.find", "rhash.insert", "rhash.delete"} {
		out[name] = median(durs[name])
	}
	return out, nil
}

// probeRmm times the allocator layer alone: an rmm.NewGrowable allocator
// with the kvstore's block geometry filled to one shard's live block count,
// timing an Alloc plus the Free of a random live block (occupancy stays
// put). It returns the median ns of the pair.
func (b *bench) probeRmm(livePerShard int) (float64, error) {
	cfg := storeConfig(b.opt.w)
	pool := pmem.New(pmem.Config{Mode: b.mode(), CapacityWords: probeWords, MaxThreads: 2})
	a := rmm.NewGrowable(pool, 4, 64, cfg.MaxChunks, 0)
	h := a.Handle(pool.NewThread(1))
	live := make([]pmem.Addr, max(livePerShard, 1))
	for i := range live {
		if live[i] = h.Alloc(); live[i] == pmem.Null {
			return 0, fmt.Errorf("rmm probe: allocator exhausted at %d blocks", i)
		}
	}
	r := newRNG(b.opt.seed, 0x4a11)
	root := b.ctl.begin("probe.rmm", -1, 0)
	durs := make([]float64, 0, probeOps)
	for n := 0; n < probeOps; n++ {
		j := r.intn(len(live))
		t0 := now()
		nb := h.Alloc()
		err := h.Free(live[j])
		t1 := now()
		if nb == pmem.Null || err != nil {
			return 0, fmt.Errorf("rmm probe: alloc %#x, free: %v", uint64(nb), err)
		}
		live[j] = nb
		b.ctl.record("rmm.alloc_free", t0, t1, root, int64(n))
		durs = append(durs, float64(t1-t0))
	}
	b.ctl.end(root)
	return median(durs), nil
}

// clockCost returns the ns one timing pair (two clock reads) costs.
func clockCost() float64 {
	const n = 1 << 18
	var sink int64
	best := 0.0
	for trial := 0; trial < 5; trial++ {
		t0 := now()
		for i := 0; i < n; i++ {
			a := now()
			sink += now() - a
		}
		if d := float64(now()-t0) / n; trial == 0 || d < best {
			best = d
		}
	}
	if sink < 0 {
		panic("clock ran backwards")
	}
	return best
}
