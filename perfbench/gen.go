package main

import (
	"fmt"
	"math"
)

// Operation kinds a client issues against kvstore.Handle.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opCAS
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "delete", "cas"}

// op is one generated request. Keys are 1-based; the store never sees
// anything but generated keys and values.
type op struct {
	kind opKind
	key  int64
}

// workload fixes the inputs of one benchmark workload. Every field is a
// property of the traffic, not of the store under test: the store geometry
// is derived from keys (see storeConfig).
type workload struct {
	name    string
	keys    int     // key-space size, a power of two
	preload int     // keys stored before the measured phase
	theta   float64 // Zipf skew of the key draw; 0 is uniform
	mix     [numKinds]int
	// strict selects a ModeStrict pool and the crash/recover cycle loop.
	strict bool
	// partitioned gives client c the keys with (key-1) % clients == c, so
	// every key has one writer and the crash oracle can predict each
	// result exactly.
	partitioned bool
}

const clients = 2

// workloads are the benchmark's three traffic mixes; README.md records why
// each exists.
var workloads = []workload{
	{name: "write-churn", keys: 4096, preload: 2048,
		mix: [numKinds]int{opGet: 20, opPut: 40, opDelete: 30, opCAS: 10}},
	{name: "read-large-zipf", keys: 65536, preload: 65536, theta: 0.99,
		mix: [numKinds]int{opGet: 90, opPut: 10}},
	{name: "crash-recover", keys: 65536, preload: 32768, strict: true, partitioned: true,
		mix: [numKinds]int{opGet: 25, opPut: 50, opDelete: 25}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the key space by div (a power of two) for tests.
func (w workload) scaled(div int) workload {
	w.keys /= div
	w.preload /= div
	return w
}

// rng is a splitmix64 stream, the repository's standard seed scrambler
// used as a generator: cheap, seedable per stream, identical on every
// platform.
type rng struct{ s uint64 }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e9b5
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// newRNG derives an independent stream from the run seed and a stream id.
func newRNG(seed, stream uint64) *rng {
	return &rng{s: splitmix64(seed ^ splitmix64(stream+0x51ed27))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n) for 0 < n < 2^32.
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// keyDist draws ranks (uniform or Zipf by exact inverse CDF) and maps them
// to keys through a fixed bijection of [0, n) that scatters the hot keys
// across shards. The bijection is part of the workload, not of the seed:
// which shards the hottest keys share sets how much the two clients
// contend, and a per-seed placement would make that vary between runs.
type keyDist struct {
	n        int
	cum      []float64 // cum[i] = P(rank <= i); nil for uniform
	mul, add uint64
}

func newKeyDist(n int, theta float64) *keyDist {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("key space %d is not a power of two", n))
	}
	r := newRNG(0, 0xd157)
	d := &keyDist{n: n, mul: r.next() | 1, add: r.next()}
	if theta > 0 {
		d.cum = zipfCDF(n, theta)
	}
	return d
}

// zipfCDF returns the cumulative Zipf(theta) mass over ranks 1..n.
func zipfCDF(n int, theta float64) []float64 {
	cum := make([]float64, n)
	sum := 0.0
	for i := range cum {
		sum += 1 / math.Pow(float64(i+1), theta)
		cum[i] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	cum[n-1] = 1
	return cum
}

// rank draws a 0-based rank (0 is the hottest).
func (d *keyDist) rank(r *rng) int {
	if d.cum == nil {
		return r.intn(d.n)
	}
	u := r.float()
	lo, hi := 0, d.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// keyOf maps a rank to its key in [1, n].
func (d *keyDist) keyOf(rank int) int64 {
	return int64((uint64(rank)*d.mul+d.add)&uint64(d.n-1)) + 1
}

// opStream is one client's deterministic request sequence.
type opStream struct {
	r    *rng
	dist *keyDist
	mix  [numKinds]int
	// own is set for partitioned workloads: keys are drawn from the
	// client's half only.
	own    bool
	client int
}

func newOpStream(w workload, seed uint64, client int) *opStream {
	n := w.keys
	if w.partitioned {
		n /= clients
	}
	return &opStream{
		r:      newRNG(seed, uint64(100+client)),
		dist:   newKeyDist(n, w.theta),
		mix:    w.mix,
		own:    w.partitioned,
		client: client,
	}
}

func (s *opStream) next() op {
	p := s.r.intn(100)
	k := opKind(0)
	for ; k < numKinds-1; k++ {
		if p < s.mix[k] {
			break
		}
		p -= s.mix[k]
	}
	key := s.dist.keyOf(s.dist.rank(s.r))
	if s.own {
		key = (key-1)*clients + int64(s.client) + 1
	}
	return op{kind: k, key: key}
}

// preloadKeys returns the w.preload keys stored before the measured phase,
// a seeded sample without replacement in insertion order.
func preloadKeys(w workload, seed uint64) []int64 {
	keys := make([]int64, w.keys)
	for i := range keys {
		keys[i] = int64(i + 1)
	}
	r := newRNG(seed, 0x9e10ad)
	for i := 0; i < w.preload; i++ {
		j := i + r.intn(len(keys)-i)
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys[:w.preload]
}

// Values encode their key, writer and a per-(writer, key) sequence number,
// so any value read back names exactly one write.
const (
	seqBits     = 36
	writerShift = seqBits
	keyShift    = 40
	seqMask     = 1<<seqBits - 1
	// preloadWriter is the writer id of values stored during set-up.
	preloadWriter = clients
)

func encodeValue(key int64, writer int, seq uint64) uint64 {
	return uint64(key)<<keyShift | uint64(writer)<<writerShift | seq&seqMask
}

func decodeValue(v uint64) (key int64, writer int, seq uint64) {
	return int64(v >> keyShift), int(v >> writerShift & 0xf), v & seqMask
}
