package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/pmem"
)

// tinyOptions shrinks a workload and every phase so a run takes about a
// second (more under -race).
func tinyOptions(w workload, trace bool) options {
	return options{
		w: w.scaled(64), seed: 5, seconds: 0.4, trace: trace,
		stores: 2, restarts: 2, winNs: 100e6, warmupNs: 50e6,
		crashAccesses: 20000,
	}
}

// declared returns the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmokeAllWorkloads runs every workload tiny, untraced and traced, and
// checks that it passes its own output checks and reports exactly the
// metrics BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := execute(tinyOptions(w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted < 100 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d errs=%v",
					w.name, trace, rep.correct, rep.failed, rep.attempted, rep.errs)
			}
			want := declared(t, "end_to_end")
			if trace {
				want = declared(t, "per_layer")
			}
			got := sortedKeys(rep.metrics)
			if len(got) != len(want) {
				t.Fatalf("%s trace=%v: metrics %v, declared %v", w.name, trace, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trace=%v: metric %q, declared %q", w.name, trace, got[i], want[i])
				}
			}
			// Every end-to-end metric, and the per-layer ones every workload
			// exercises, must have been measured.
			positive := got
			if trace {
				positive = []string{"kvstore.get_ns", "kvstore.put_ns", "rhash.find_ns", "rhash.insert_ns",
					"rmm.alloc_free_ns", "pmem.pwbs_per_op", "recovery.store_ms", "recovery.first_op_us",
					"recovery.verify_ms", "bench.clock_ns"}
			}
			for _, name := range positive {
				if rep.metrics[name].Value <= 0 {
					t.Errorf("%s trace=%v: metric %s = %v, want > 0", w.name, trace, name, rep.metrics[name].Value)
				}
			}
		}
	}
}

// oneClientCounts runs n requests of client 0 alone on a fresh store and
// returns the per-request persistence counts the report derives.
func oneClientCounts(t *testing.T, w workload, seed uint64, n int) [3]float64 {
	t.Helper()
	b := newBench(options{w: w, seed: seed}, 0)
	if err := b.setup(1 << 22); err != nil {
		t.Fatal(err)
	}
	cl := b.cl[0]
	ph := b.startPhase()
	for i := 0; i < n; i++ {
		cl.step()
	}
	ph.stop()
	b.ops = int64(n)
	return [3]float64{b.perOp(b.pm.PWBs), b.perOp(b.pm.PSyncs), b.perOp(uint64(b.words * pmem.WordSize))}
}

// TestCountsRepeatWithOneClient: with one client the counters are a
// function of the seed alone, so the measured-phase deltas must repeat
// exactly (two clients interleave and only repeat within noise).
func TestCountsRepeatWithOneClient(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(16)
		a := oneClientCounts(t, w, 9, 3000)
		b := oneClientCounts(t, w, 9, 3000)
		if a != b {
			t.Errorf("%s: pwbs/psyncs/bytes per op %v then %v", w.name, a, b)
		}
		if a[0] == 0 || a[2] == 0 {
			t.Errorf("%s: counts %v, want non-zero pwbs and bytes", w.name, a)
		}
	}
}

// TestOracleFlagsViolations feeds the oracle results a correct store can
// never return and checks each is counted.
func TestOracleFlagsViolations(t *testing.T) {
	w := workloads[2].scaled(64) // exact model
	o := newOracle(w, []int64{1})
	// Never written, and not the model value either: two violations.
	o.observe(0, op{kind: opGet, key: 1}, 0, result{val: encodeValue(1, 0, 5), ok: true})
	o.observe(0, op{kind: opPut, key: 1}, o.nextValue(0, 1), result{ok: true}) // key 1 was preloaded
	o.observe(1, op{kind: opDelete, key: 2}, 0, result{ok: true})              // key 2 never stored
	if got := o.violations.Load(); got != 4 {
		t.Errorf("exact oracle counted %d violations, want 4: %v", got, o.errors())
	}
	shared := newOracle(workloads[0].scaled(64), nil)
	shared.observe(0, op{kind: opGet, key: 3}, 0, result{val: encodeValue(4, 1, 1), ok: true})
	if got := shared.violations.Load(); got != 1 {
		t.Errorf("shared oracle counted %d violations for a value of another key, want 1", got)
	}
}
