// Crash-recovery: crash at an exact persist point, recover detectably.
//
// Where examples/quickstart crashes at a random access count, this example
// uses the deterministic crash-site trigger the sweep harness is built on
// (docs/crash-model.md): it arms a crash at one named pwb code line of the
// recoverable list — the persist of the update CAS, after the operation's
// descriptor is durable but before its effect is — lets the crash strike
// mid-Insert under the worst-case adversary, and shows the recovery
// function finishing the operation and reporting its response exactly
// once.
//
// Run with: go run ./examples/crash-recovery
package main

import (
	"fmt"
	"log"

	"repro/internal/pmem"
	"repro/internal/rlist"
)

func main() {
	pool := pmem.New(pmem.Config{
		Mode:          pmem.ModeStrict,
		CapacityWords: 1 << 18,
		MaxThreads:    4,
	})
	list := rlist.New(pool, 4, 0)
	h := list.Handle(pool.NewThread(1))

	fmt.Println("Insert(10):", h.Insert(10))
	fmt.Println("Insert(30):", h.Insert(30))
	fmt.Println("keys:", list.Keys(pool.NewThread(2)))

	// Arm a crash at the first executed PWB of the list's update-CAS code
	// line: Insert(20) will have published its descriptor (so it is
	// recoverable) and just applied its linking CAS — but the write-back
	// of that CAS is still in flight when the crash strikes.
	site := pool.RegisterSite("rlist/pwb-update-field")
	pool.SetCrashAtSite(site, 1)

	fmt.Println("\n--- crash at rlist/pwb-update-field during Insert(20) ---")
	func() {
		defer func() {
			if r := recover(); r != nil && r != pmem.ErrCrashed {
				panic(r)
			}
			fmt.Println("crash! volatile state lost")
		}()
		h.Invoke() // the system's failure-atomic invocation step
		h.Insert(20)
	}()

	// Worst-case adversary: every scheduled-but-unsynced write-back and
	// every dirty cache line is dropped — the linking CAS never reached
	// the durable view, only the descriptor did.
	pool.Crash(pmem.CrashPolicy{})
	pool.Recover()

	// Post-crash: reattach from the root slot and call the recovery
	// function with the original argument. It finds the durable
	// descriptor, replays the idempotent Help procedure (re-tagging,
	// re-applying the CAS), and returns the operation's response.
	recovered, err := rlist.Attach(pool, 0)
	if err != nil {
		log.Fatal(err)
	}
	h2 := recovered.Handle(pool.NewThread(1))
	first := h2.RecoverInsert(20)
	keys := recovered.Keys(pool.NewThread(2))
	fmt.Println("RecoverInsert(20):", first)
	fmt.Println("keys after recovery:", keys)

	// Exactly-once: re-running the recovery function must not apply the
	// insert twice — it just reports the recorded response again.
	again := recovered.Handle(pool.NewThread(1)).RecoverInsert(20)
	keysAgain := recovered.Keys(pool.NewThread(2))
	fmt.Println("RecoverInsert(20) again:", again)
	fmt.Println("keys unchanged:", keysAgain)
	if !first || !again || fmt.Sprint(keys) != "[10 20 30]" || fmt.Sprint(keysAgain) != "[10 20 30]" {
		log.Fatalf("audit failed: RecoverInsert(20)=%v then %v, keys %v then %v", first, again, keys, keysAgain)
	}

	if err := recovered.CheckInvariants(pool.NewThread(2), true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("structural invariants hold")
}
