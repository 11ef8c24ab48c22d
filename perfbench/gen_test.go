package main

import (
	"math"
	"testing"
)

func streamPrefix(w workload, seed uint64, client, n int) []op {
	s := newOpStream(w, seed, client)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := streamPrefix(w, 7, 1, 5000)
		b := streamPrefix(w, 7, 1, 5000)
		c := streamPrefix(w, 8, 1, 5000)
		same, diff := true, 0
		for i := range a {
			if a[i] != b[i] {
				same = false
			}
			if a[i] != c[i] {
				diff++
			}
		}
		if !same {
			t.Errorf("%s: the same seed gave different streams", w.name)
		}
		if diff < len(a)/2 {
			t.Errorf("%s: seeds 7 and 8 agree on %d of %d requests", w.name, len(a)-diff, len(a))
		}
		p1, p2 := preloadKeys(w, 7), preloadKeys(w, 7)
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%s: preload differs for the same seed at %d", w.name, i)
			}
		}
	}
}

func TestStreamMixAndKeys(t *testing.T) {
	for _, w := range workloads {
		const n = 200000
		var kinds [numKinds]int
		for c := 0; c < clients; c++ {
			for _, o := range streamPrefix(w, 3, c, n) {
				kinds[o.kind]++
				if o.key < 1 || o.key > int64(w.keys) {
					t.Fatalf("%s: key %d outside [1, %d]", w.name, o.key, w.keys)
				}
				if w.partitioned && owner(o.key) != c {
					t.Fatalf("%s: client %d drew key %d owned by client %d", w.name, c, o.key, owner(o.key))
				}
			}
		}
		for k, pct := range w.mix {
			got := float64(kinds[k]) / (clients * n) * 100
			if math.Abs(got-float64(pct)) > 0.5 {
				t.Errorf("%s: %s share %.2f%%, want %d%%", w.name, kindNames[k], got, pct)
			}
		}
	}
}

func TestKeyMappingIsBijection(t *testing.T) {
	d := newKeyDist(4096, 0)
	seen := make([]bool, 4097)
	for r := 0; r < 4096; r++ {
		k := d.keyOf(r)
		if k < 1 || k > 4096 || seen[k] {
			t.Fatalf("rank %d maps to key %d (out of range or repeated)", r, k)
		}
		seen[k] = true
	}
}

// TestZipfHeadMass compares the sampled share of the hottest ranks with
// the analytic Zipf mass sum_{i<=k} i^-theta / H(n, theta).
func TestZipfHeadMass(t *testing.T) {
	const n, theta, draws = 65536, 0.99, 400000
	d := newKeyDist(n, theta)
	r := newRNG(11, 1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[d.rank(r)]++
	}
	h := 0.0
	for i := 1; i <= n; i++ {
		h += math.Pow(float64(i), -theta)
	}
	for _, k := range []int{1, 10, 100, 1000} {
		want, got := 0.0, 0
		for i := 1; i <= k; i++ {
			want += math.Pow(float64(i), -theta) / h
			got += counts[i-1]
		}
		share := float64(got) / draws
		sd := math.Sqrt(want * (1 - want) / draws)
		if math.Abs(share-want) > 5*sd {
			t.Errorf("top %d ranks: sampled mass %.4f, analytic %.4f (5 sd = %.4f)", k, share, want, 5*sd)
		}
	}
}

func TestValueEncodingRoundTrip(t *testing.T) {
	for _, c := range []struct {
		key    int64
		writer int
		seq    uint64
	}{{1, 0, 1}, {65536, 1, 123456789}, {4096, preloadWriter, 1}} {
		k, w, s := decodeValue(encodeValue(c.key, c.writer, c.seq))
		if k != c.key || w != c.writer || s != c.seq {
			t.Errorf("round trip of %+v gave (%d, %d, %d)", c, k, w, s)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	for _, v := range []uint32{0, 1, 127, 128, 129, 1000, 65535, 1 << 31, math.MaxUint32} {
		lo, width := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d in bucket %d = [%g, %g)", v, bucketOf(v), lo, lo+width)
		}
		if bucketOf(v) >= histBuckets {
			t.Errorf("value %d maps past the last bucket", v)
		}
	}
	var h hist
	r := newRNG(5, 5)
	xs := make([]float64, 0, 100000)
	for i := 0; i < 100000; i++ {
		v := int64(500 + r.intn(50000))
		h.add(v)
		xs = append(xs, float64(v))
	}
	for _, q := range []float64{0.5, 0.99} {
		exact := quantile(xs, q)
		if got := h.quantile(q); math.Abs(got-exact)/exact > 1.0/(1<<subBits) {
			t.Errorf("q%.2f: histogram %.1f, exact %.1f", q, got, exact)
		}
	}
}
