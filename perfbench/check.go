package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// result is what one kvstore call returned: Get's value and found flag,
// Put's absent flag, Delete's present flag or CAS's swapped flag (in ok).
type result struct {
	val uint64
	ok  bool
}

// clientLog is one client's record of its own effects, kept so the checks
// need no global order between the clients.
type clientLog struct {
	ins, del []int32  // successful inserts (Put on an absent key) and deletes, per key
	lastW    []uint64 // last value this client wrote to the key (0 = none)
	lastRead []uint64 // value this client last read from the key (0 = absent)
	// model is the exact expected value (0 = absent) of each key the
	// client owns, kept only for partitioned workloads.
	model           []uint64
	touched         []int64 // keys written since the last verification (exact model only)
	casTried, casOK int64
}

// oracle checks every result the clients see and the store's final state.
// Its per-client logs are written only by their client; issued is shared
// and atomic because reads check against the other writer's sequence.
type oracle struct {
	n       int
	exact   bool
	initial []bool
	issued  [clients + 1][]atomic.Uint32
	logs    [clients]*clientLog

	violations atomic.Int64
	mu         sync.Mutex
	firstErrs  []string
}

func newOracle(w workload, preloaded []int64) *oracle {
	o := &oracle{n: w.keys, exact: w.partitioned, initial: make([]bool, w.keys)}
	for i := range o.issued {
		o.issued[i] = make([]atomic.Uint32, w.keys)
	}
	for c := range o.logs {
		l := &clientLog{
			ins: make([]int32, w.keys), del: make([]int32, w.keys),
			lastW: make([]uint64, w.keys), lastRead: make([]uint64, w.keys),
		}
		if o.exact {
			l.model = make([]uint64, w.keys)
		}
		o.logs[c] = l
	}
	for _, k := range preloaded {
		o.initial[k-1] = true
		o.issued[preloadWriter][k-1].Store(1)
		if o.exact {
			o.logs[owner(k)].model[k-1] = preloadValue(k)
		}
	}
	return o
}

func owner(key int64) int { return int(key-1) % clients }

func preloadValue(key int64) uint64 { return encodeValue(key, preloadWriter, 1) }

func (o *oracle) fail(format string, args ...any) {
	if o.violations.Add(1) <= 5 {
		o.mu.Lock()
		o.firstErrs = append(o.firstErrs, fmt.Sprintf(format, args...))
		o.mu.Unlock()
	}
}

func (o *oracle) errors() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.firstErrs...)
}

// nextValue issues client c's next value for key.
func (o *oracle) nextValue(c int, key int64) uint64 {
	return encodeValue(key, c, uint64(o.issued[c][key-1].Add(1)))
}

// withdraw returns client c's last issued number for key, whose value
// was never stored.
func (o *oracle) withdraw(c int, key int64) { o.issued[c][key-1].Add(^uint32(0)) }

// written reports whether value v was issued for key and not withdrawn:
// every sequence number at or below the writer's counter was stored by a
// Put or a successful CAS, because a failed CAS withdraws its number.
func (o *oracle) written(key int64, v uint64) bool {
	k, w, seq := decodeValue(v)
	return k == key && w <= preloadWriter && seq >= 1 && seq <= uint64(o.issued[w][key-1].Load())
}

// args returns the values op o carries for client c: the value a Put or
// CAS stores, and the value a CAS expects (the one c last read).
func (o *oracle) args(c int, op op) (arg, old uint64) {
	switch op.kind {
	case opPut:
		arg = o.nextValue(c, op.key)
	case opCAS:
		old = o.logs[c].lastRead[op.key-1]
		arg = o.nextValue(c, op.key)
	}
	return arg, old
}

// observe checks and records the result of one completed (or recovered)
// operation of client c.
func (o *oracle) observe(c int, op op, arg uint64, res result) {
	l := o.logs[c]
	ki := op.key - 1
	switch op.kind {
	case opGet:
		if res.ok && !o.written(op.key, res.val) {
			o.fail("client %d: Get(%d) returned %#x, never written to that key", c, op.key, res.val)
		}
		if res.ok {
			l.lastRead[ki] = res.val
		} else {
			l.lastRead[ki] = 0
		}
	case opPut:
		if res.ok {
			l.ins[ki]++
		}
		l.lastW[ki] = arg
	case opDelete:
		if res.ok {
			l.del[ki]++
		}
	case opCAS:
		l.casTried++
		if res.ok {
			l.casOK++
			l.lastW[ki] = arg
		} else {
			o.withdraw(c, op.key)
		}
	}
	if !o.exact {
		return
	}
	if op.kind != opGet {
		l.touched = append(l.touched, op.key)
	}
	want := l.model[ki]
	switch op.kind {
	case opGet:
		if res.ok != (want != 0) || res.val != want {
			o.fail("client %d: Get(%d) = (%#x, %v), want (%#x, %v)", c, op.key, res.val, res.ok, want, want != 0)
		}
	case opPut:
		if res.ok != (want == 0) {
			o.fail("client %d: Put(%d) absent=%v, want %v", c, op.key, res.ok, want == 0)
		}
		l.model[ki] = arg
	case opDelete:
		if res.ok != (want != 0) {
			o.fail("client %d: Delete(%d) present=%v, want %v", c, op.key, res.ok, want != 0)
		}
		l.model[ki] = 0
	}
}

// checkMembership compares the store's index membership with the clients'
// records: per key, successful inserts minus successful deletes must equal
// the change in membership since preload (counted without any order
// between clients), and under the exact model membership must match it.
func (o *oracle) checkMembership(s *kvstore.Store, ctx *pmem.ThreadCtx) []bool {
	present := make([]bool, o.n)
	for _, k := range s.Keys(ctx) {
		if k < 1 || int(k) > o.n {
			o.fail("store holds key %d outside the generated key space", k)
			continue
		}
		if present[k-1] {
			o.fail("key %d appears twice in the store", k)
		}
		present[k-1] = true
	}
	for ki := range present {
		net := 0
		for _, l := range o.logs {
			net += int(l.ins[ki]) - int(l.del[ki])
		}
		want := b2i(present[ki]) - b2i(o.initial[ki])
		if net != want {
			o.fail("key %d: %d net successful inserts, membership changed by %d", ki+1, net, want)
		}
		if o.exact && present[ki] != (o.logs[owner(int64(ki+1))].model[ki] != 0) {
			o.fail("key %d: present=%v after recovery, model says %v", ki+1, present[ki], !present[ki])
		}
	}
	return present
}

// checkValue reads key through h and checks the value against the writes
// that could have been last: the exact model value, or else the last write
// of either client (the preload value when neither wrote the key).
func (o *oracle) checkValue(h *kvstore.Handle, key int64) {
	v, ok := h.Get(key)
	if !ok {
		o.fail("key %d: member of the index but Get finds no value", key)
		return
	}
	if o.exact {
		if want := o.logs[owner(key)].model[key-1]; v != want {
			o.fail("key %d: value %#x after recovery, want %#x", key, v, want)
		}
		return
	}
	any := false
	for _, l := range o.logs {
		if w := l.lastW[key-1]; w != 0 {
			any = true
			if v == w {
				return
			}
		}
	}
	if !any && o.initial[key-1] && v == preloadValue(key) {
		return
	}
	o.fail("key %d: final value %#x is no client's last write", key, v)
}

// checkFinal runs the end-of-run checks on a quiescent store: membership,
// every live key's value, and the store's own cross-layer invariants.
func (o *oracle) checkFinal(s *kvstore.Store, h *kvstore.Handle, ctx *pmem.ThreadCtx) {
	present := o.checkMembership(s, ctx)
	for ki, p := range present {
		if p {
			o.checkValue(h, int64(ki+1))
		}
	}
	if err := s.CheckInvariants(ctx, true); err != nil {
		o.fail("CheckInvariants: %v", err)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
