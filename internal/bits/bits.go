// Package bits provides bit-size accounting for protocol state.
//
// The paper's central claims are about memory measured in bits per node
// (O(log n) for the verification scheme, versus the Ω(log² n) needed by
// 1-time schemes). To make those claims measurable rather than asserted,
// every protocol state struct in this repository implements the Sized
// interface, and the helpers here compute the width of the individual
// fields: identifiers, levels, weights, port numbers and small enums.
package bits

import "math/bits"

// Sized is implemented by every protocol state so the simulation engine can
// report the maximum number of bits any node stores at any time.
type Sized interface {
	// BitSize returns the number of bits needed to encode the state.
	BitSize() int
}

// ForUint returns the number of bits required to represent v, with a minimum
// of 1 (a zero value still occupies one bit of an encoded field). Setting
// the low bit leaves every other width unchanged and lifts 0 to 1, so the
// width needs no branch: the engine re-measures every stepped state every
// round, which puts these helpers on the per-round path.
func ForUint(v uint64) int { return bits.Len64(v | 1) }

// ForInt returns the number of bits required to represent v in sign-magnitude
// form: one sign bit plus the magnitude width. The magnitude is taken
// without a branch: s is 0 for v ≥ 0 and all ones for v < 0, and
// (v^s)-s is |v| — for MinInt64 it wraps to MinInt64 itself, whose unsigned
// reading 2^63 is the true magnitude.
func ForInt(v int64) int {
	s := v >> 63
	return 1 + ForUint(uint64((v^s)-s))
}

// ForEnum returns the width of a field holding one of k distinct symbols.
func ForEnum(k int) int {
	if k <= 2 {
		return 1
	}
	return ForUint(uint64(k - 1))
}

// ForBool is the width of a boolean flag.
const ForBool = 1

// Flag is the width of one boolean flag field. It inlines to the constant
// ForBool; taking the field as an argument ties each counted bit to a read
// of the field it pays for, which is what the bitsizeaudit analyzer in
// internal/analysis cross-references against the struct declaration.
func Flag(bool) int { return ForBool }

// ForString returns the width of a fixed-alphabet string of length n over an
// alphabet of k symbols, as used by the Roots/EndP/Parents strings of §5.
func ForString(n, k int) int {
	return n * ForEnum(k)
}

// Sum adds its arguments; a convenience for BitSize implementations.
func Sum(vs ...int) int {
	s := 0
	for _, v := range vs {
		s += v
	}
	return s
}
