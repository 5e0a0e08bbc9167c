// Package hashx is the streaming hash behind ATM's task keys: the
// paper's §III-B keys a task with a deterministic 64-bit hash over its
// sampled input bytes, and this package supplies it as Bob Jenkins'
// lookup3 run as a stream (lookup3.go). Every key the engine computes and
// every fingerprint a snapshot carries is defined by this one function;
// docs/hashing.md records why it is lookup3 and what its 64-bit keys
// promise about collisions.
//
// What the package guarantees, and its tests check, is that every
// write-path combination (byte-wise, word-wise, bulk typed slices)
// produces the same Sum64 for the same logical byte stream, and that the
// stream definition is frozen (TestKnownAnswers): persisted keys are only
// reusable while it is.
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
// logical byte stream produces the same Sum64.
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
	// WriteFloat64sTop adds, element by element, the k most significant
	// bytes (k = 1, 2 or 4) of each element's little-endian IEEE-754
	// encoding: the stream of a sampled key that selects the top k bytes
	// of every element (type-aware selection at p = k/8).
	WriteFloat64sTop(d []float64, k int)
	// WriteFloat32sTop is WriteFloat64sTop for float32 elements
	// (k = 1 or 2).
	WriteFloat32sTop(d []float32, k int)
	// WriteInt32sTop is WriteFloat64sTop for int32 elements (k = 1 or 2).
	WriteInt32sTop(d []int32, k int)
	// Sum64 finalizes and returns the 64-bit hash of everything written
	// so far without consuming the hasher's state.
	Sum64() uint64
}

// Func names a key hash function. Lookup3 is the only one.
type Func uint8

// Lookup3 is Jenkins' lookup3 run as a stream (lookup3.go).
const Lookup3 Func = 0

// New returns a fresh Lookup3 hasher seeded with seed. It panics on any
// other Func. The parameter has one legal value; it stays in the
// signature only because the repository benchmark (benchmark/calib.go
// and benchmark/trace.go) calls New(Lookup3, seed).
func New(f Func, seed uint64) Hasher {
	if f != Lookup3 {
		panic(fmt.Sprintf("hashx: unknown hash func %d", f))
	}
	s := &lookup3State{seed: seed}
	s.Reset()
	return s
}
