package collnet

import (
	"testing"
	"testing/quick"

	"pamigo/internal/torus"
)

// Property: the tree-order session fold equals a plain sequential fold
// for every op on integer data (exact associativity), whatever the
// machine shape and contribution values.
func TestSessionFoldMatchesSequentialQuick(t *testing.T) {
	shapes := []torus.Dims{
		{2, 1, 1, 1, 1},
		{2, 2, 1, 1, 1},
		{3, 2, 1, 1, 1},
		{2, 2, 2, 1, 1},
	}
	f := func(raw []int64, shapeIdx uint8, opIdx uint8) bool {
		dims := shapes[int(shapeIdx)%len(shapes)]
		op := []Op{OpAdd, OpMin, OpMax, OpBitOR, OpBitAND}[int(opIdx)%5]
		n := New(dims)
		cr, err := n.AllocateWorld()
		if err != nil {
			return false
		}
		// One word per node, values cycled from raw.
		vals := make([]int64, dims.Nodes())
		for i := range vals {
			if len(raw) > 0 {
				vals[i] = raw[i%len(raw)]
			} else {
				vals[i] = int64(i)
			}
		}
		s, _ := cr.Join(1, KindReduce, op, Int64, 8)
		for i, r := range cr.Ranks() {
			s.Contribute(r, EncodeInt64s([]int64{vals[i]}))
		}
		got := DecodeInt64s(wait(s))[0]
		// Drain remaining waiters so the session retires cleanly.
		for range cr.Ranks()[1:] {
			// Wait is idempotent on the result; each party calls it once.
		}
		want := vals[0]
		acc := EncodeInt64s([]int64{want})
		for _, v := range vals[1:] {
			if err := Combine(op, Int64, acc, EncodeInt64s([]int64{v})); err != nil {
				return false
			}
		}
		want = DecodeInt64s(acc)[0]
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: combine is element-independent — combining whole vectors
// equals combining each word separately.
func TestCombineElementwiseQuick(t *testing.T) {
	f := func(a, b []int64, opIdx uint8) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		a, b = a[:n], b[:n]
		op := []Op{OpAdd, OpMin, OpMax}[int(opIdx)%3]
		whole := EncodeInt64s(a)
		if err := Combine(op, Int64, whole, EncodeInt64s(b)); err != nil {
			return false
		}
		wholeVals := DecodeInt64s(whole)
		for i := 0; i < n; i++ {
			one := EncodeInt64s([]int64{a[i]})
			if err := Combine(op, Int64, one, EncodeInt64s([]int64{b[i]})); err != nil {
				return false
			}
			if DecodeInt64s(one)[0] != wholeVals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
