package main

// Inputs. Everything the program under test receives is generated here from
// -seed alone: scrambled unique keys, the key choosers (uniform, scrambled
// zipfian), the mixgraph value-size sampler, and self-describing values whose
// bytes are a pure function of (key, version) — so every Get, including ones
// racing a Put of the same key from another caller, verifies without a
// reference map. The benchmark deliberately does not import
// bandslim/internal/workload: the instrument owns its inputs.

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
)

// rng is splitmix64: small, fast, and good enough that consecutive seeds give
// unrelated streams.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) u64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// f64 returns a float in [0, 1).
func (r *rng) f64() float64 { return float64(r.u64()>>11) / (1 << 53) }

// intn returns an integer in [0, n).
func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// mix64 is a bijection on uint64 (the splitmix64 finalizer): distinct inputs
// give distinct, well-scrambled outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// keyOf maps a dense key index to a unique scrambled 8-byte key. The key
// universe does not depend on the seed — the seed decides which keys are asked
// for, in which order, with which sizes — so which shard owns the hottest
// zipfian ranks is a fixed property of a workload, not a per-seed lottery
// (it moved sharded sim_kops by 10 % between seeds when it was).
func keyOf(idx int) uint64 { return mix64(uint64(idx) ^ 0x6b65797370616365) }

// putKey writes the 8-byte wire form of key into dst.
func putKey(dst []byte, key uint64) []byte {
	dst = dst[:8]
	binary.BigEndian.PutUint64(dst, key)
	return dst
}

// Self-describing values. A value is the first size bytes of
//
//	[8 B key hash][4 B version][body: xorshift64* stream seeded by the header]
//
// so a reader holding only the key can check that the bytes belong to that
// key and are internally consistent, whatever version a concurrent writer
// left behind. Values shorter than the 12-byte header (mixgraph has many)
// carry a truncated header and are checked as a prefix of version 0.
const valueHeader = 12

func keyHash(key uint64) uint64 { return mix64(key ^ 0x76616c7565686472) }

// fillValue renders the value of (key, ver) at the given size into dst.
func fillValue(dst []byte, key uint64, ver uint32, size int) []byte {
	if cap(dst) < size+8 {
		dst = make([]byte, size+8)
	}
	full := dst[:cap(dst)]
	var hdr [valueHeader]byte
	binary.BigEndian.PutUint64(hdr[:8], keyHash(key))
	binary.BigEndian.PutUint32(hdr[8:], ver)
	n := copy(full, hdr[:])
	x := keyHash(key) ^ (uint64(ver)+1)*0x9E3779B97F4A7C15
	for ; n < size; n += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(full[n:], x*0x2545F4914F6CDD1D)
	}
	return full[:size]
}

// checkValue reports whether val is a well-formed value of key. wantSize < 0
// accepts any length. scratch is reused across calls.
func checkValue(key uint64, val []byte, wantSize int, scratch *[]byte) bool {
	if wantSize >= 0 && len(val) != wantSize {
		return false
	}
	var ver uint32
	if len(val) >= valueHeader {
		ver = binary.BigEndian.Uint32(val[8:valueHeader])
	}
	*scratch = fillValue(*scratch, key, ver, len(val))
	return bytes.Equal(*scratch, val)
}

// mixgraphSize samples db_bench mixgraph's value-size model: a Generalized
// Pareto (sigma 14, xi 0.9) capped at 1 KiB — about 70 % of values under
// 35 bytes, mean about 53 bytes, the paper's W(M).
func mixgraphSize(r *rng) int {
	const sigma, xi, maxSize = 14.0, 0.9, 1024
	x := sigma / xi * (math.Pow(1-r.f64(), -xi) - 1)
	if x >= maxSize {
		return maxSize
	}
	return 1 + int(x)
}

// zipfian draws ranks in [0, n) with P(rank) proportional to 1/(rank+1)^theta
// (Gray et al.'s closed form, as YCSB uses) and scatters them over the key
// index space with a multiplicative permutation, so hot keys are not
// neighbours in any shard or SSTable.
type zipfian struct {
	n                       int
	theta, alpha, eta, zeta float64
	half                    float64
}

func newZipfian(n int, theta float64) *zipfian {
	var zeta float64
	for i := 1; i <= n; i++ {
		zeta += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipfian{
		n: n, theta: theta, zeta: zeta,
		alpha: 1 / (1 - theta),
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zeta),
		half:  zeta2,
	}
}

// scramblePrime is coprime to every data-set size used here, so
// rank -> rank*scramblePrime mod n is a permutation of [0, n).
const scramblePrime = 2654435761

func (z *zipfian) next(r *rng) int {
	u := r.f64()
	uz := u * z.zeta
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return int(uint64(rank) * scramblePrime % uint64(z.n))
}

// Op kinds. The two Get kinds carry the verifier's expectation.
const (
	opPut       uint8 = iota
	opGet             // the key was written: a miss is a failure
	opGetAbsent       // the key was never written: a hit is a failure
)

// op is one generated operation. 16 bytes, so a million-op stream is 16 MB.
type op struct {
	key     uint64
	ver     uint32 // Put: version stamped into the value header
	size    uint16 // Put: value bytes
	kind    uint8
	sampled bool // the timed pass stamps this op's wall latency (seeded 1-in-64)
}

// instance is one fully generated workload input: what set-up writes and what
// each caller then issues, plus a digest proving two runs saw the same bytes.
type instance struct {
	load    [][]op // per caller: Puts issued during set-up (not measured)
	callers [][]op // per caller: the measured stream
}

func (in *instance) ops() int {
	n := 0
	for _, c := range in.callers {
		n += len(c)
	}
	return n
}

// digest is FNV-1a over every generated field, load first, caller by caller.
func (in *instance) digest() uint64 {
	h := fnv.New64a()
	var b [16]byte
	add := func(streams [][]op) {
		for _, s := range streams {
			for _, o := range s {
				binary.LittleEndian.PutUint64(b[:8], o.key)
				binary.LittleEndian.PutUint32(b[8:12], o.ver)
				binary.LittleEndian.PutUint16(b[12:14], o.size)
				b[14] = o.kind
				b[15] = 0
				if o.sampled {
					b[15] = 1
				}
				h.Write(b[:])
			}
		}
	}
	add(in.load)
	add(in.callers)
	return h.Sum64()
}

// sampleEvery is the timed pass's latency sampling period.
const sampleEvery = 64

// loadOps is a set-up stream writing version 0 of key indices [from, to).
func loadOps(from, to, size int) []op {
	out := make([]op, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, op{key: keyOf(i), size: uint16(size), kind: opPut})
	}
	return out
}

// genFill: n Puts of unique keys with mixgraph sizes, one caller, empty start.
func genFill(seed uint64, _, n int) *instance {
	r := newRNG(seed)
	s := make([]op, n)
	for i := range s {
		s[i] = op{key: keyOf(i), size: uint16(mixgraphSize(r)), kind: opPut, sampled: r.intn(sampleEvery) == 0}
	}
	return &instance{load: [][]op{nil}, callers: [][]op{s}}
}

// genReadCold: load keys of 128 B, then n uniform-random Gets of which one in
// ten asks for a key that was never written.
func genReadCold(seed uint64, load, n int) *instance {
	r := newRNG(seed)
	s := make([]op, n)
	for i := range s {
		o := op{kind: opGet, key: keyOf(r.intn(load)), sampled: r.intn(sampleEvery) == 0}
		if r.intn(10) == 0 {
			o.kind, o.key = opGetAbsent, keyOf(load+r.intn(load))
		}
		s[i] = o
	}
	return &instance{load: [][]op{loadOps(0, load, 128)}, callers: [][]op{s}}
}

// genZipfMixed: load keys of 256 B; two callers each issue n/2 ops to any
// key: 80 % Get / 20 % Put, scrambled zipfian 0.99, 5 % of Gets to absent keys.
func genZipfMixed(seed uint64, load, n int) *instance {
	const callers, size = 2, 256
	z := newZipfian(load, 0.99)
	in := &instance{load: [][]op{loadOps(0, load, size), nil}}
	for c := 0; c < callers; c++ {
		r := newRNG(seed ^ uint64(c+1)<<56)
		s := make([]op, n/callers)
		for i := range s {
			o := op{sampled: r.intn(sampleEvery) == 0}
			switch p := r.intn(100); {
			case p < 20:
				// Versions are unique per caller, so a racing reader sees one
				// writer's bytes or the other's, never a mixture it accepts.
				o.kind, o.key, o.size, o.ver = opPut, keyOf(z.next(r)), size, uint32(c+1)<<28|uint32(i)
			case p < 24:
				o.kind, o.key = opGetAbsent, keyOf(load+r.intn(load))
			default:
				o.kind, o.key = opGet, keyOf(z.next(r))
			}
			s[i] = o
		}
		in.callers = append(in.callers, s)
	}
	return in
}

// genServe: two connections, each with its own load/2 keys of 128 B, each
// issuing n/2 commands: 50 % SET / 50 % GET, scrambled zipfian 0.99.
func genServe(seed uint64, load, n int) *instance {
	const conns, size = 2, 128
	per := load / conns
	z := newZipfian(per, 0.99)
	in := &instance{}
	for c := 0; c < conns; c++ {
		r := newRNG(seed ^ uint64(c+1)<<56)
		in.load = append(in.load, loadOps(c*per, (c+1)*per, size))
		s := make([]op, n/conns)
		for i := range s {
			o := op{kind: opGet, key: keyOf(c*per + z.next(r)), sampled: true}
			if r.intn(2) == 0 {
				o.kind, o.size, o.ver = opPut, size, uint32(i+1)
			}
			s[i] = o
		}
		in.callers = append(in.callers, s)
	}
	return in
}
