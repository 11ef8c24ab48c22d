// Quickstart: a detectably recoverable linked list on simulated NVMM.
//
// The example creates a persistent pool, builds the Tracking-based
// recoverable list of the paper's Section 4, runs a few operations, then
// simulates a system-wide crash in the middle of an insert and shows how
// the recovery function resolves the interrupted operation exactly once.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/pmem"
	"repro/internal/rlist"
)

func main() {
	// A strict-mode pool models NVMM with volatile caches exactly:
	// un-flushed writes are lost on a crash.
	pool := pmem.New(pmem.Config{
		Mode:          pmem.ModeStrict,
		CapacityWords: 1 << 18,
		MaxThreads:    4,
	})

	// Create the list; its persistent header lands in root slot 0 so a
	// post-crash process can find it again.
	list := rlist.New(pool, 4, 0)
	h := list.Handle(pool.NewThread(1))

	fmt.Println("Insert(10):", h.Insert(10))
	fmt.Println("Insert(20):", h.Insert(20))
	fmt.Println("Insert(10) again:", h.Insert(10))
	fmt.Println("Find(20):", h.Find(20))
	fmt.Println("Delete(10):", h.Delete(10))
	fmt.Println("keys:", list.Keys(pool.NewThread(2)))

	// Simulate a crash striking in the middle of Insert(30): the pool
	// panics with pmem.ErrCrashed at some persistent-memory access; the
	// "system" (this function) catches it, resolves the crash with an
	// adversarial choice of surviving write-backs, and resurrects the
	// thread.
	fmt.Println("\n--- crash during Insert(30) ---")
	pool.SetCrashAfter(25)
	func() {
		defer func() {
			if r := recover(); r != nil && r != pmem.ErrCrashed {
				panic(r)
			}
			fmt.Println("crash! volatile state lost")
		}()
		h.Invoke() // the system's failure-atomic invocation step
		h.Insert(30)
	}()
	pool.SetCrashAfter(0)
	pool.Crash(pmem.CrashPolicy{}) // worst case: nothing un-synced survived
	pool.Recover()

	// Post-crash: reattach from the root slot and run the recovery
	// function with the original argument. Detectable recovery
	// guarantees a correct response and exactly-once semantics.
	recovered, err := rlist.Attach(pool, 0)
	if err != nil {
		log.Fatal(err)
	}
	h2 := recovered.Handle(pool.NewThread(1))
	inserted := h2.RecoverInsert(30)
	found := h2.Find(30)
	keys := recovered.Keys(pool.NewThread(2))
	fmt.Println("RecoverInsert(30):", inserted)
	fmt.Println("Find(30):", found)
	fmt.Println("keys after recovery:", keys)

	// Audit: 30 was absent, so the recovered insert reports true and the
	// key is present exactly once.
	if !inserted || !found || fmt.Sprint(keys) != "[20 30]" {
		log.Fatalf("audit failed: RecoverInsert(30)=%v Find(30)=%v keys=%v", inserted, found, keys)
	}

	if err := recovered.CheckInvariants(pool.NewThread(2), true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("structural invariants hold")

	// Next step: examples/crash-recovery crashes at one exact persist
	// point via the crash-site trigger (docs/crash-model.md) instead of a
	// random access count.
	fmt.Println("\nsee also: go run ./examples/crash-recovery")
}
