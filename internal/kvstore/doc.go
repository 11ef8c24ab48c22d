// Package kvstore is a sharded, detectably-recoverable key/value store
// built from the repository's recoverable building blocks: each of N
// independent shards pairs an embedded rhash map (the membership index,
// lock-free and detectable through the tracking engine) with an
// rmm-backed value plane (an open-addressed slot table whose live slots
// point at allocator blocks holding key, TTL and value words).
//
// # Durable layout and commit protocol
//
// A store occupies one pmem root slot. The slot points at an 8-word
// header (magic, geometry, hash seed, shard-directory address, tracking
// table address); the header points at a shard directory with one cache
// line per shard carrying the shard's rhash bucket-table address, its
// value-slot-table address, and the word its private rmm allocator
// publishes its own header through (rmm.NewGrowableAt / rmm.AttachAt).
// Construction persists everything the directory reaches and only then
// publishes the header address into the root slot with a single
// persisted store — the commit point. A crash mid-construction leaves
// the slot Null and Recover reports "holds no store" instead of parsing
// garbage.
//
// # Operations
//
// Keys hash to a shard with a seeded splitmix64; each shard serializes
// its writers with a volatile spinlock whose spin body performs a pool
// load, so a simulated crash propagates into spinners instead of
// deadlocking them. Only membership changes touch the tracking index: a
// fresh-key Put and a Delete of a present key. Get, an overwriting Put,
// CAS and a Delete of an absent key answer from the value plane alone.
// This is exact because of the lock invariant: whenever a shard's lock is
// free, a key has a live slot if and only if it is an index member
// (CheckInvariants enforces it; store recovery re-establishes it before
// any operation runs). A fresh Put runs the three-stage protocol the
// recovery machinery is built around: (1) value-write — allocate a block
// (its bitmap bit is durable before the address is returned), persist
// key/value, publish the block address into a free slot with a persisted
// store; (2) index-insert — the rhash Insert, whose tracking checkpoint
// is the membership linearization point; (3) TTL-stamp — persist the
// expiry tick into the block. Delete linearizes at the rhash Delete,
// then tombstones the slot durably and frees the block (bit-clear
// durable before reuse). Overwrites and CAS build a fully-persisted
// replacement block and commit it with a single-word slot swap.
//
// # Recovery
//
// Recover (and RecoverParallel, which fans the same per-shard work out
// on an internal/recovery engine — the durable result is byte-identical
// by construction, since shards touch disjoint words and the per-shard
// code is shared) re-attaches the header and tracking engine, finishes
// every index operation the crash left in flight (so no later recovery
// function or helper changes membership behind the reconciliation), then
// per shard: re-attaches the embedded rhash and the shard allocator,
// tombstones every live slot whose key is not in the index (a Put that
// crashed between value-publish and index-insert, or a Delete that
// crashed between index-delete and tombstone), rejects duplicate or
// foreign slots, and runs rmm.RecoverGC with the surviving blocks as
// roots so crash-leaked blocks return to the free-stacks. Per-operation
// exactly-once results are then available through RecoverPut /
// RecoverDelete, which return the index operation's recorded result if
// it took effect and re-execute the op otherwise (exact for an overwrite
// or an absent-key Delete only if the caller ran Handle.Invoke before the
// operation), RecoverGet, which re-executes Get (a read has no effect,
// so it linearizes inside recovery), and RecoverCAS, which is
// value-witnessed and therefore exact only when old != new; see its
// comment.
//
// The tracking engine is shared by every shard (site prefix "rhash",
// the same machinery rhash itself uses): a thread runs one recoverable
// operation at a time, so one checkpoint/response pair per thread
// covers all shards, exactly as one engine covers all buckets inside
// rhash. The kvstore's own persistence sites are "kvstore/pwb-val",
// "kvstore/pwb-slot" and "kvstore/pwb-ttl" — the crash sweep enumerates
// these; the index's tracking windows are swept by the rhash adapter.
package kvstore
