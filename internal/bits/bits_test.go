package bits

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestForUint(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 62, 63},
	}
	for _, c := range cases {
		if got := ForUint(c.v); got != c.want {
			t.Errorf("ForUint(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestForInt(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 2}, {1, 2}, {-1, 2}, {2, 3}, {-2, 3}, {127, 8}, {-128, 9},
	}
	for _, c := range cases {
		if got := ForInt(c.v); got != c.want {
			t.Errorf("ForInt(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// refForUint and refForInt are the branching definitions of the two widths:
// the reference the branch-free ForUint and ForInt must match.
func refForUint(v uint64) int {
	if v == 0 {
		return 1
	}
	return bits.Len64(v)
}

func refForInt(v int64) int {
	if v < 0 {
		return 1 + refForUint(uint64(-v))
	}
	return 1 + refForUint(uint64(v))
}

// TestWidthsMatchReference checks the branch-free widths against the
// reference at every power-of-two boundary: 0, ±1, ±2^k and ±(2^k−1) for
// every k, MaxInt64 and MinInt64 (whose magnitude overflows int64).
func TestWidthsMatchReference(t *testing.T) {
	// k = 63: -2^63 is MinInt64, ±(2^63−1) are MaxInt64 and MinInt64+1,
	// and +2^63 is out of range.
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for k := 1; k < 63; k++ {
		p := int64(1) << k
		ints = append(ints, p, -p, p-1, -(p - 1))
	}
	for _, v := range ints {
		if got, want := ForInt(v), refForInt(v); got != want {
			t.Errorf("ForInt(%d) = %d, reference %d", v, got, want)
		}
	}
	uints := []uint64{0, 1, math.MaxUint64}
	for k := 1; k < 64; k++ {
		p := uint64(1) << k
		uints = append(uints, p, p-1, p+1)
	}
	for _, v := range uints {
		if got, want := ForUint(v), refForUint(v); got != want {
			t.Errorf("ForUint(%d) = %d, reference %d", v, got, want)
		}
	}
	if err := quick.CheckEqual(ForInt, refForInt, nil); err != nil {
		t.Error(err)
	}
	if err := quick.CheckEqual(ForUint, refForUint, nil); err != nil {
		t.Error(err)
	}
}

func TestForEnum(t *testing.T) {
	cases := []struct {
		k    int
		want int
	}{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
	}
	for _, c := range cases {
		if got := ForEnum(c.k); got != c.want {
			t.Errorf("ForEnum(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestForString(t *testing.T) {
	// Roots strings: length l+1 over {0,1,*} — 2 bits per entry.
	if got := ForString(5, 3); got != 10 {
		t.Errorf("ForString(5,3) = %d, want 10", got)
	}
	// EndP strings: 4 symbols — 2 bits per entry.
	if got := ForString(5, 4); got != 10 {
		t.Errorf("ForString(5,4) = %d, want 10", got)
	}
}

func TestSum(t *testing.T) {
	if Sum() != 0 {
		t.Fatal("empty Sum should be 0")
	}
	if Sum(3, 9, 1) != 13 {
		t.Errorf("Sum(3,9,1) = %d", Sum(3, 9, 1))
	}
}

// Property: ForUint is monotone and ForUint(v) bits suffice: v < 2^ForUint(v).
func TestForUintProperty(t *testing.T) {
	f := func(v uint64) bool {
		n := ForUint(v)
		if n < 1 || n > 64 {
			return false
		}
		if n < 64 && v>>uint(n) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
