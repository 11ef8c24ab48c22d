// Command perfbench is the repository's wall-clock benchmark of the
// sharded, detectably recoverable key/value store (internal/kvstore). It
// runs one seeded closed-loop workload with two client goroutines, checks
// every result, and prints its metrics; see README.md.
//
//	perfbench --workload write-churn --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when an
// output check failed or the run could not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// spansDir is where a traced run writes its spans file, relative to the
// working directory (the checkout root when run through run.py).
const spansDir = ".bench_build/trace"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: write-churn, read-large-zipf or crash-recover")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {write-churn|read-large-zipf|crash-recover}, --seconds >= 1, --trace 0|1 (%v)\n", err)
		return 2
	}
	opt := defaultOptions(w, *seed, float64(*seconds), *trace == 1)
	rep, err := execute(opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if opt.trace {
		path := fmt.Sprintf("%s/spans-%s-seed%d.tsv", spansDir, w.name, *seed)
		if err := writeSpans(path, rep.tracers); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		rep.note("spans file: %s", path)
	}
	rep.print(stdout)
	if !rep.correct {
		for _, e := range rep.errs {
			fmt.Fprintln(stderr, "perfbench: check failed:", e)
		}
		return 1
	}
	return 0
}

// defaultOptions are the settings the command runs with; tests shrink them.
func defaultOptions(w workload, seed uint64, seconds float64, trace bool) options {
	opt := options{
		w: w, seed: seed, seconds: seconds, trace: trace,
		stores: 5, restarts: 3, winNs: 1e9, warmupNs: 300e6,
		crashAccesses: 4_000_000,
	}
	return opt
}

// report is what a run prints.
type report struct {
	correct           bool
	attempted, failed int64
	metrics           metrics
	order             []string
	notes             []string
	errs              []string
	tracers           []*tracer
}

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes one "name value unit" line per metric, the notes, and the
// JSON result as the last line.
func (r *report) print(out io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(out, "#", n)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(out, "%-28s %16.6f %s\n", name, m.Value, m.Unit)
	}
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // only finite floats and strings reach here
	}
	fmt.Fprintln(out, string(line))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sumPrefix sums the per-site counts whose label starts with prefix.
func sumPrefix(bySite map[string]uint64, prefix string) uint64 {
	var n uint64
	for k, v := range bySite {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}
