// Package hashx is the pluggable hashing layer behind ATM's task-key
// computation. The engine's steady-state cost at high sampling rates is
// dominated by input hashing (PERFORMANCE.md §PR1: the lookup3 block
// loop runs ~2.1 GB/s scalar), so the hash function is the rawest
// remaining speed lever — and because every persisted snapshot carries a
// config fingerprint that core folds the hash choice into, the function
// can be swapped per deployment without ever silently probing warm state
// written under a different algorithm.
//
// Three functions are registered:
//
//   - Lookup3 — the original Bob Jenkins lookup3 streaming hash
//     (lookup3.go), the default for backward compatibility: its
//     streams, keys and fingerprints are bit-identical to every snapshot
//     written before this layer existed.
//   - XXH3 — an xxh3-style stripe hash: 64-byte stripes over 8 lanes of
//     64-bit accumulators with a seed-derived rolling secret, scrambled
//     every 16 stripes. The stripe kernel has an AVX2 implementation on
//     amd64 and a NEON implementation on arm64, selected by runtime
//     CPU-feature detection, with a portable scalar kernel as reference
//     and fallback; all kernels are bit-identical, so one machine's
//     snapshots restore on any other under the same Func.
//   - Wyhash — a wyhash-style pure-Go hash with an unrolled wide-scalar
//     48-byte block loop (three 128-bit-multiply lanes per block): the
//     fast path for builds and architectures without a vector kernel.
//
// Like Lookup3 (whose API this package generalizes), the streaming
// variants fold the total input length at finalization rather
// than front-loading it, and XXH3/Wyhash deliberately do not match their
// namesakes' reference vectors: ATM only requires a deterministic,
// self-consistent, well-mixed key, and the simplification keeps the
// streaming and bulk paths exactly stream-equivalent. What IS guaranteed,
// and covered by differential and fuzz tests, is that for a given Func
// every write-path combination (byte-wise, word-wise, bulk typed slices)
// and every kernel (scalar, AVX2, NEON) produces the same Sum64 for the
// same logical byte stream.
package hashx

import "fmt"

// Hasher is the streaming hash surface ATM's key computation uses. A
// Hasher is single-goroutine
// state, reused across tasks via ResetSeed (the per-worker fast path
// relies on this to stay allocation-free). Sum64 does not consume state:
// writes may continue after it.
//
// The word and slice methods append the little-endian bytes of their
// arguments to the hash stream: any mix of calls that produces the same
// logical byte stream produces the same Sum64. Hasher also satisfies
// region.WordSink and the optional bulk-sink capabilities region's
// p = 100% fast path detects.
type Hasher interface {
	// Reset restores the hasher to its initial (empty) state under the
	// current seed.
	Reset()
	// ResetSeed restores the hasher to its initial state under a new
	// seed.
	ResetSeed(seed uint64)
	// WriteByte adds one byte to the hash stream. It never fails (the
	// error return matches io.ByteWriter).
	WriteByte(b byte) error
	// WriteUint16 adds u's 2 little-endian bytes.
	WriteUint16(u uint16)
	// WriteUint32 adds u's 4 little-endian bytes.
	WriteUint32(u uint32)
	// WriteUint64 adds u's 8 little-endian bytes.
	WriteUint64(u uint64)
	// WriteFloat64s adds the little-endian IEEE-754 bytes of every
	// element: the bulk p = 100% fast path.
	WriteFloat64s(d []float64)
	// WriteFloat32s adds the little-endian IEEE-754 bytes of every
	// element.
	WriteFloat32s(d []float32)
	// WriteInt32s adds the little-endian bytes of every element.
	WriteInt32s(d []int32)
	// WriteBytes adds p byte-for-byte.
	WriteBytes(p []byte)
	// Sum64 finalizes and returns the 64-bit hash of everything written
	// so far without consuming the hasher's state.
	Sum64() uint64
}

// Func identifies a registered hash function. The zero value is Lookup3,
// the engine's historical hash, so zero-valued configs keep their exact
// pre-hashx behavior (streams, keys and fingerprints).
type Func uint8

// Registered hash functions.
const (
	Lookup3 Func = iota // Jenkins lookup3 (default, back-compat)
	XXH3                // xxh3-style stripes, SIMD kernels where available
	Wyhash              // wyhash-style pure-Go wide-scalar blocks
	numFuncs
)

type impl struct {
	name    string
	factory func(seed uint64) Hasher
}

var registry [numFuncs]*impl

// register installs a hash implementation; each Func registers exactly
// once, from its implementation file's init.
func register(f Func, name string, factory func(seed uint64) Hasher) {
	if f >= numFuncs || registry[f] != nil {
		panic(fmt.Sprintf("hashx: duplicate or out-of-range registration %d %q", f, name))
	}
	registry[f] = &impl{name: name, factory: factory}
}

// Registered reports whether f names a registered hash function.
func Registered(f Func) bool { return f < numFuncs && registry[f] != nil }

// New returns a fresh hasher for f seeded with seed. It panics on an
// unregistered Func — config paths validate names with ParseFunc first,
// so reaching here with a bad value is a programming error.
func New(f Func, seed uint64) Hasher {
	if !Registered(f) {
		panic(fmt.Sprintf("hashx: unregistered hash func %d", f))
	}
	return registry[f].factory(seed)
}

// String returns the function's registered name.
func (f Func) String() string {
	if Registered(f) {
		return registry[f].name
	}
	return fmt.Sprintf("Func(%d)", uint8(f))
}

// ParseFunc resolves a registered hash-function name (the -hash flag
// value of atmbench and atmd). The empty string is the default, Lookup3.
func ParseFunc(name string) (Func, error) {
	if name == "" {
		return Lookup3, nil
	}
	for f := Func(0); f < numFuncs; f++ {
		if registry[f] != nil && registry[f].name == name {
			return f, nil
		}
	}
	return 0, fmt.Errorf("hashx: unknown hash function %q (have %v)", name, Names())
}

// Names lists the registered function names in Func order.
func Names() []string {
	names := make([]string, 0, numFuncs)
	for f := Func(0); f < numFuncs; f++ {
		if registry[f] != nil {
			names = append(names, registry[f].name)
		}
	}
	return names
}

// Funcs lists the registered Funcs in order.
func Funcs() []Func {
	fs := make([]Func, 0, numFuncs)
	for f := Func(0); f < numFuncs; f++ {
		if registry[f] != nil {
			fs = append(fs, f)
		}
	}
	return fs
}
