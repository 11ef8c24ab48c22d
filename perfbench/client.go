package main

import (
	"fmt"

	"repro/internal/kvstore"
	"repro/internal/pmem"
)

// spanNames name the span around each kind of kvstore.Handle call.
var spanNames = [numKinds]string{"kvstore.get", "kvstore.put", "kvstore.delete", "kvstore.cas"}

// client is one closed-loop caller: it issues its next request only after
// the previous one returned. Its in-flight request survives a crash, so the
// crash loop can resolve it through the matching Recover* call.
type client struct {
	id   int
	tid  int
	ctx  *pmem.ThreadCtx
	h    *kvstore.Handle
	ops  *opStream
	or   *oracle
	tr   *tracer // nil when untraced
	reqs int64

	// explicitInvoke makes the client perform the invocation step itself
	// before each call, as a crash harness must to tell "crashed before
	// invocation" from "crashed inside the operation". Ordinary callers
	// leave it to the operation.
	explicitInvoke bool

	// The in-flight request: generated, possibly invoked, not completed.
	cur       op
	arg, old  uint64
	pending   bool
	invoked   bool
	failed    int64
	firstErr  string
	panicked  any // a non-crash panic that stopped the client
	completed int64
}

// attach points the client at a (re)built store through a fresh thread
// context, as a thread resurrected after a crash or restart would get.
func (c *client) attach(pool *pmem.Pool, s *kvstore.Store) {
	c.ctx = pool.NewThread(c.tid)
	c.h = s.Handle(c.ctx)
}

// prepare generates the next request unless one is still in flight.
func (c *client) prepare() {
	if c.pending {
		return
	}
	c.cur = c.ops.next()
	c.arg, c.old = c.or.args(c.id, c.cur)
	c.pending, c.invoked = true, false
	c.reqs++
}

func (c *client) req() int64 { return int64(c.id)<<40 | c.reqs }

// call executes the in-flight request from its invocation step.
func (c *client) call() (result, error) {
	if c.explicitInvoke {
		c.h.Invoke()
	}
	c.invoked = true
	o := c.cur
	switch o.kind {
	case opGet:
		v, ok := c.h.Get(o.key)
		return result{val: v, ok: ok}, nil
	case opPut:
		absent, err := c.h.Put(o.key, c.arg, kvstore.NoExpiry)
		return result{ok: absent}, err
	case opDelete:
		present, err := c.h.Delete(o.key)
		return result{ok: present}, err
	default:
		swapped, err := c.h.CAS(o.key, c.old, c.arg)
		return result{ok: swapped}, err
	}
}

// resolve runs the recovery function of a request a crash interrupted
// after its invocation step.
func (c *client) resolve() (result, error) {
	o := c.cur
	switch o.kind {
	case opGet:
		v, ok := c.h.RecoverGet(o.key)
		return result{val: v, ok: ok}, nil
	case opPut:
		absent, err := c.h.RecoverPut(o.key, c.arg, kvstore.NoExpiry)
		return result{ok: absent}, err
	case opDelete:
		present, err := c.h.RecoverDelete(o.key)
		return result{ok: present}, err
	default:
		swapped, err := c.h.RecoverCAS(o.key, c.old, c.arg)
		return result{ok: swapped}, err
	}
}

// complete hands the in-flight request's outcome to the oracle. A
// returned error is a failed operation.
func (c *client) complete(res result, err error) {
	c.pending, c.invoked = false, false
	c.completed++
	if err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("client %d %s(%d): %v", c.id, kindNames[c.cur.kind], c.cur.key, err)
		}
		if c.cur.kind == opCAS {
			c.or.withdraw(c.id, c.cur.key)
		}
		return
	}
	c.or.observe(c.id, c.cur, c.arg, res)
}

// step runs one request to completion and returns its kind and its
// call-to-return interval.
func (c *client) step() (kind opKind, t0, t1 int64) {
	c.prepare()
	t0 = now()
	res, err := c.call()
	t1 = now()
	c.tr.record(spanNames[c.cur.kind], t0, t1, -1, c.req())
	kind = c.cur.kind
	c.complete(res, err)
	return kind, t0, t1
}

// guard runs body and converts a panic into the client's state: a
// simulated crash parks the client; anything else (pool exhaustion, a
// store bug) is recorded as a failure and crashes the pool so the other
// client, possibly spinning on a lock this one held, parks too.
func (c *client) guard(pool *pmem.Pool, body func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == pmem.ErrCrashed {
				crashed = true
				return
			}
			c.failed++
			c.panicked = r
			pool.TriggerCrash()
			crashed = true
		}
	}()
	body()
	return false
}
