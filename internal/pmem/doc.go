// Package pmem simulates byte-addressable non-volatile main memory (NVMM)
// with volatile caches under the explicit epoch persistency model of
// Izraelevitz et al., as assumed by Attiya et al., "Detectable Recovery of
// Lock-Free Data Structures" (PPoPP 2022), Section 2.
//
// A Pool is a word-addressed arena with two views:
//
//   - the volatile view, which threads read and write with atomic Load,
//     Store and CAS operations (this models CPU caches and registers), and
//   - the durable view, which survives a simulated system-wide crash
//     (this models the NVMM media).
//
// Writes reach the durable view only through explicit persistent
// write-backs: PWB schedules a write-back of the 64-byte cache line
// containing an address, PFence orders preceding PWBs before subsequent
// ones, and PSync waits until all of the calling thread's scheduled
// write-backs have completed. A dirty line may also be written back at any
// time by cache eviction; the crash adversary models this.
//
// The pool runs in one of two modes:
//
//   - ModeStrict maintains the durable view precisely and supports Crash
//     and Recover with an adversarial choice of which un-synced write-backs
//     completed. It is used by the correctness and crash-injection tests.
//   - ModeFast skips the durable view and instead charges each persistence
//     instruction a simulated cost: a PWB performs real shared-memory work
//     on per-line metadata and spins proportionally to the line's observed
//     "flush heat" (how many distinct threads recently wrote or flushed
//     it), while PSync and PFence are nearly free. This reproduces the
//     persistence-cost behaviour the paper measures on Intel Optane:
//     flushes of private or freshly allocated lines are cheap, flushes of
//     shared contended lines are expensive, and fences are negligible
//     because CAS already drains the store buffer.
//
// Every PWB call site in an algorithm registers a Site. Per-site counters
// and per-site enable/disable switches implement the paper's experimental
// methodology (Section 5): measuring the impact of each pwb code line,
// classifying the lines into Low/Medium/High impact categories, and
// re-running with categories removed.
//
// # Simulator overhead
//
// The paper's methodology attributes throughput differences between
// configurations to persistence instructions, so the simulator's own
// per-access overhead must stay small and must not inject cache-line
// sharing of its own. The hot path is therefore built around three rules
// (see "Simulator overhead and calibration" in DESIGN.md):
//
//   - every access performs exactly one read of pool-global control state
//     (the padded crashCtl word, read-mostly and uncontended), with all
//     crash-countdown and failure work on an outlined slow path;
//   - the volatile view is accessed with the memory ordering of the
//     modeled machine, x86-TSO (see words_relaxed.go / words_atomic.go);
//   - mutable pool-global atomics each live on their own cache line, so a
//     writer of one (an allocating thread, a crash trigger, a site
//     reconfiguration) does not invalidate the others in every cache.
//
// # Cross-operation batching
//
// A thread may open a write-combining epoch (BeginBatch/EndBatch), or a
// pool may install an ambient one (SetBatchPolicy); either is bounded by
// one number, its op count, with the line bound fixed at four times it.
// Inside an epoch, ModeFast defers flush charges into a per-thread buffer
// that merges duplicate lines across operations and absorbs the epoch's
// psyncs into one group sync. ModeStrict has no batching at all —
// write-backs are still captured at PWB time and committed at PSync time,
// and every batching and elision counter reads zero — so the reachable
// durable states are unchanged (see batch.go for the full invariant set).
// Batching, flush avoidance and the plain charge are policies of one
// write-back path: every persist entry point shares its site count,
// telemetry report and crash-site countdown.
//
// Batching composes with the psync switch in one fixed order: a disabled
// PSync (SetPsyncEnabled(false)) never joins or extends an epoch, and in
// strict mode it still commits the pending write-backs immediately —
// durability is never deferred just because a batch is open. In fast mode
// the deferred line charges still drain at epoch close; only the sync cost
// disappears. TestBatchedPsyncDisabledStillDrainsInStrictMode and its
// fast-mode twin pin this down.
//
// # Crash and site APIs
//
// Crash freezes the pool (every thread panics with ErrCrashed at its next
// access) and applies a CrashPolicy — the adversary's choice of which
// scheduled write-backs and dirty lines reach the durable view; Recover
// swaps the durable view in as the new volatile state. SetCrashAt arms a
// crash at the n-th subsequent access, and SetCrashAtSite arms one at the
// k-th executed PWB of a specific registered Site — the deterministic
// trigger the crash-site sweep (internal/chaos/sweep) is built on.
// Snapshot reports per-site counters; SetSiteEnabled implements the
// paper's category-removal experiments.
package pmem
