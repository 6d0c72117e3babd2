package collnet

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pamigo/internal/torus"
)

var dims = torus.Dims{2, 2, 2, 1, 1}

func TestCombineInt64(t *testing.T) {
	acc := EncodeInt64s([]int64{1, -5, 7})
	src := EncodeInt64s([]int64{2, 3, -7})
	if err := Combine(OpAdd, Int64, acc, src); err != nil {
		t.Fatal(err)
	}
	got := DecodeInt64s(acc)
	want := []int64{3, -2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("add: got %v", got)
		}
	}
}

func TestCombineMinMax(t *testing.T) {
	acc := EncodeInt64s([]int64{1, 9})
	if err := Combine(OpMin, Int64, acc, EncodeInt64s([]int64{-4, 10})); err != nil {
		t.Fatal(err)
	}
	if got := DecodeInt64s(acc); got[0] != -4 || got[1] != 9 {
		t.Fatalf("min: got %v", got)
	}
	acc = EncodeInt64s([]int64{1, 9})
	if err := Combine(OpMax, Int64, acc, EncodeInt64s([]int64{-4, 10})); err != nil {
		t.Fatal(err)
	}
	if got := DecodeInt64s(acc); got[0] != 1 || got[1] != 10 {
		t.Fatalf("max: got %v", got)
	}
}

func TestCombineFloat64(t *testing.T) {
	acc := EncodeFloat64s([]float64{1.5, -2.25})
	if err := Combine(OpAdd, Float64, acc, EncodeFloat64s([]float64{0.5, 2.25})); err != nil {
		t.Fatal(err)
	}
	got := DecodeFloat64s(acc)
	if got[0] != 2.0 || got[1] != 0.0 {
		t.Fatalf("float add: got %v", got)
	}
}

func TestCombineUint64Ops(t *testing.T) {
	acc := EncodeInt64s([]int64{5})
	if err := Combine(OpMin, Uint64, acc, EncodeInt64s([]int64{3})); err != nil {
		t.Fatal(err)
	}
	if got := DecodeInt64s(acc)[0]; got != 3 {
		t.Fatalf("uint min = %d", got)
	}
	acc = EncodeInt64s([]int64{0x0f})
	if err := Combine(OpBitOR, Uint64, acc, EncodeInt64s([]int64{0xf0})); err != nil {
		t.Fatal(err)
	}
	if got := DecodeInt64s(acc)[0]; got != 0xff {
		t.Fatalf("bor = %#x", got)
	}
	acc = EncodeInt64s([]int64{0x0f})
	if err := Combine(OpBitAND, Uint64, acc, EncodeInt64s([]int64{0x03})); err != nil {
		t.Fatal(err)
	}
	if got := DecodeInt64s(acc)[0]; got != 0x03 {
		t.Fatalf("band = %#x", got)
	}
}

func TestCombineErrors(t *testing.T) {
	if err := Combine(OpAdd, Int64, make([]byte, 8), make([]byte, 16)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := Combine(OpAdd, Int64, make([]byte, 7), make([]byte, 7)); err == nil {
		t.Fatal("unaligned length accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		got := DecodeFloat64s(EncodeFloat64s(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] && !(math.IsNaN(got[i]) && math.IsNaN(vals[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateAndFree(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Parties() != dims.Nodes() {
		t.Fatalf("world route has %d parties", cr.Parties())
	}
	if got := n.InUse(0); got != 1 {
		t.Fatalf("InUse = %d after allocate", got)
	}
	n.Free(cr)
	if got := n.InUse(0); got != 0 {
		t.Fatalf("InUse = %d after free", got)
	}
}

func TestAllocateRejectsBadRoot(t *testing.T) {
	n := New(dims)
	rect := torus.Rectangle{Lo: torus.Coord{0, 0, 0, 0, 0}, Hi: torus.Coord{0, 1, 1, 0, 0}}
	outside := dims.RankOf(torus.Coord{1, 0, 0, 0, 0})
	if _, err := n.Allocate(rect, outside); err == nil {
		t.Fatal("root outside rectangle accepted")
	}
}

func TestClassRouteExhaustion(t *testing.T) {
	n := New(dims)
	var routes []*ClassRoute
	for i := 0; i < UserSlots; i++ {
		cr, err := n.AllocateWorld()
		if err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
		routes = append(routes, cr)
	}
	if _, err := n.AllocateWorld(); err != ErrNoClassRoute {
		t.Fatalf("over-allocation returned %v, want ErrNoClassRoute", err)
	}
	// Deoptimize one and the slot becomes reusable.
	n.Free(routes[0])
	if _, err := n.AllocateWorld(); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
}

func TestDisjointRectanglesDontCompete(t *testing.T) {
	n := New(dims)
	left := torus.Rectangle{Lo: torus.Coord{0, 0, 0, 0, 0}, Hi: torus.Coord{0, 1, 1, 0, 0}}
	right := torus.Rectangle{Lo: torus.Coord{1, 0, 0, 0, 0}, Hi: torus.Coord{1, 1, 1, 0, 0}}
	for i := 0; i < UserSlots; i++ {
		if _, err := n.Allocate(left, dims.RankOf(left.Lo)); err != nil {
			t.Fatalf("left %d: %v", i, err)
		}
	}
	// Left column is full, but the right column must still have slots.
	if _, err := n.Allocate(right, dims.RankOf(right.Lo)); err != nil {
		t.Fatalf("disjoint rectangle blocked: %v", err)
	}
}

func runSession(t *testing.T, cr *ClassRoute, kind Kind, op Op, dt DType, contribs map[torus.Rank][]byte) []byte {
	t.Helper()
	nbytes := 0
	for _, b := range contribs {
		nbytes = len(b)
		break
	}
	if kind != KindReduce {
		nbytes = len(contribs[cr.Root])
	}
	var wg sync.WaitGroup
	results := make(map[torus.Rank][]byte)
	var mu sync.Mutex
	for _, r := range cr.Ranks() {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, _ := cr.Join(7, kind, op, dt, nbytes)
			if kind != KindBroadcast || r == cr.Root {
				s.Contribute(r, contribs[r])
			}
			res := wait(s)
			mu.Lock()
			results[r] = res
			mu.Unlock()
		}()
	}
	wg.Wait()
	var first []byte
	for _, r := range cr.Ranks() {
		if first == nil {
			first = results[r]
		}
		got := results[r]
		if len(got) != len(first) {
			t.Fatalf("node %d saw a result of different length", r)
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("node %d saw a different result", r)
			}
		}
	}
	return first
}

func TestSessionAllreduceSum(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	contribs := make(map[torus.Rank][]byte)
	var want int64
	for _, r := range cr.Ranks() {
		contribs[r] = EncodeInt64s([]int64{int64(r) + 1})
		want += int64(r) + 1
	}
	res := runSession(t, cr, KindReduce, OpAdd, Int64, contribs)
	if got := DecodeInt64s(res)[0]; got != want {
		t.Fatalf("allreduce sum = %d, want %d", got, want)
	}
}

func TestSessionReduceMinMaxFloat(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	contribs := make(map[torus.Rank][]byte)
	for _, r := range cr.Ranks() {
		contribs[r] = EncodeFloat64s([]float64{float64(r), -float64(r)})
	}
	res := runSession(t, cr, KindReduce, OpMax, Float64, contribs)
	vals := DecodeFloat64s(res)
	if vals[0] != float64(dims.Nodes()-1) || vals[1] != 0 {
		t.Fatalf("reduce max = %v", vals)
	}
}

func TestSessionBroadcast(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("classroute broadcast payload")
	contribs := map[torus.Rank][]byte{cr.Root: payload}
	res := runSession(t, cr, KindBroadcast, OpAdd, Uint64, contribs)
	if string(res) != string(payload) {
		t.Fatalf("broadcast result %q", res)
	}
}

func TestSessionBarrier(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	contribs := make(map[torus.Rank][]byte)
	for _, r := range cr.Ranks() {
		contribs[r] = nil
	}
	res := runSession(t, cr, KindBarrier, OpAdd, Uint64, contribs)
	if res != nil {
		t.Fatalf("barrier returned data: %v", res)
	}
}

func TestSessionRetiredAfterUse(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	contribs := make(map[torus.Rank][]byte)
	for _, r := range cr.Ranks() {
		contribs[r] = EncodeInt64s([]int64{1})
	}
	runSession(t, cr, KindReduce, OpAdd, Int64, contribs)
	live := 0
	cr.mu.Lock()
	for i := range cr.slots {
		if cr.slots[i].open {
			live++
		}
	}
	cr.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d sessions still live after completion", live)
	}
}

func TestSessionDeterministicFloatOrder(t *testing.T) {
	// The tree fold must make FP sums identical across repetitions even
	// though goroutines contribute in arbitrary order.
	n := New(torus.Dims{2, 2, 2, 2, 1})
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	contribs := make(map[torus.Rank][]byte)
	for _, r := range cr.Ranks() {
		contribs[r] = EncodeFloat64s([]float64{1e16, 1.0, -1e16}[0:1])
	}
	// Use values whose sum depends on order: r-th contribution 1/(r+1).
	for _, r := range cr.Ranks() {
		contribs[r] = EncodeFloat64s([]float64{1.0 / float64(r+1)})
	}
	first := runSession(t, cr, KindReduce, OpAdd, Float64, contribs)
	for trial := 0; trial < 5; trial++ {
		cr2, err := n.AllocateWorld()
		if err != nil {
			t.Fatal(err)
		}
		got := runSession(t, cr2, KindReduce, OpAdd, Float64, contribs)
		if DecodeFloat64s(got)[0] != DecodeFloat64s(first)[0] {
			t.Fatalf("trial %d: FP reduction not reproducible", trial)
		}
		n.Free(cr2)
	}
}

func TestJoinParameterMismatchPanics(t *testing.T) {
	n := New(dims)
	cr, err := n.AllocateWorld()
	if err != nil {
		t.Fatal(err)
	}
	cr.Join(1, KindReduce, OpAdd, Int64, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Join did not panic")
		}
	}()
	cr.Join(1, KindReduce, OpMax, Int64, 8)
}
