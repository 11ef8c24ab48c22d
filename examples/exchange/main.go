// exchange: pairing work items between threads with the detectably
// recoverable exchanger (the paper's Section 6).
//
// Producer/consumer pairs rendezvous through the exchanger to swap values;
// a crash strikes mid-run and the resurrected threads use the recovery
// function to learn, from persistent state alone, whether their exchange
// committed and with which value — so no handoff is ever lost or
// duplicated.
//
// Run with: go run ./examples/exchange
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/pmem"
	"repro/internal/rexchanger"
)

func main() {
	pool := pmem.New(pmem.Config{
		Mode:          pmem.ModeStrict,
		CapacityWords: 1 << 18,
		MaxThreads:    8,
	})
	ex := rexchanger.New(pool, 8, 0)

	// Two threads meet and swap values.
	var wg sync.WaitGroup
	results := make([]uint64, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := ex.Handle(pool.NewThread(i + 1))
			v, ok := h.Exchange(uint64(100+i), 1<<22)
			if !ok {
				log.Fatalf("thread %d timed out", i)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	fmt.Printf("thread 0 offered 100, received %d\n", results[0])
	fmt.Printf("thread 1 offered 101, received %d\n", results[1])
	if results[0] != 101 || results[1] != 100 {
		log.Fatalf("audit failed: the pair received %v, want [101 100]", results)
	}

	// A lonely exchange times out rather than blocking forever.
	h := ex.Handle(pool.NewThread(3))
	if _, ok := h.Exchange(500, 200); !ok {
		fmt.Println("lonely exchange timed out, as it should")
	}

	// Crash in the middle of an exchange attempt, then recover. The
	// recovery function decides from persistent state whether the
	// exchange committed; here nobody collided, so it resumes and (still
	// alone) times out — exactly-once semantics either way.
	fmt.Println("\n--- crash during Exchange(777) ---")
	pool.SetCrashAfter(20)
	func() {
		defer func() {
			if r := recover(); r != nil && r != pmem.ErrCrashed {
				panic(r)
			}
			fmt.Println("crash! volatile state lost")
		}()
		h.Exchange(777, 1000)
	}()
	pool.SetCrashAfter(0)
	pool.Crash(pmem.CrashPolicy{})
	pool.Recover()

	ex2, err := rexchanger.Attach(pool, 0)
	if err != nil {
		log.Fatal(err)
	}
	h2 := ex2.Handle(pool.NewThread(3))
	if v, ok := h2.RecoverExchange(777, 200); ok {
		fmt.Printf("RecoverExchange(777) -> paired, received %d\n", v)
	} else {
		fmt.Println("RecoverExchange(777) -> timed out (nobody collided before or after the crash)")
	}
}
