package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// epoch anchors every timestamp of a run; now reads the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent indexes the enclosing span in the same tracer
// (-1 for a root).
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// tracer holds one goroutine's spans in memory; tracers are merged and
// written out when the run ends. A nil *tracer records nothing, so
// untraced code paths pay one nil check per call.
type tracer struct {
	spans []span
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: now(), parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].end = now()
	}
}

// record appends an already-timed span.
func (t *tracer) record(name string, start, end int64, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

// durations returns the duration of every span named name, in ns.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in ns: each
// span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	out := make(map[string]int64)
	for i, s := range t.spans {
		covered := int64(0)
		ivs := kids[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		cur := iv{-1, -1}
		for _, c := range ivs {
			lo, hi := max(c.lo, s.start), min(c.hi, s.end)
			if hi <= lo {
				continue
			}
			if lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = iv{lo, hi}
			} else if hi > cur.hi {
				cur.hi = hi
			}
		}
		covered += cur.hi - cur.lo
		out[s.name] += s.end - s.start - covered
	}
	return out
}

// writeSpans writes every span of every tracer as tab-separated lines
// (tracer, index, parent, req, name, start_ns, end_ns) to path.
func writeSpans(path string, tracers []*tracer) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "tracer\tspan\tparent\treq\tname\tstart_ns\tend_ns")
	for ti, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", ti, i, s.parent, s.req, s.name, s.start, s.end)
		}
	}
	return w.Flush()
}
