package mu

import (
	"testing"
	"unsafe"
)

// TestRecFIFOLayout pins the reception FIFO's line map (DESIGN §7, one
// writer per line): the fields every producer reads per message share no
// 64-byte line with the fields the consumer stores to per poll, occHWM —
// ratcheted from both sides — has a line to itself, and the struct is
// whole lines, so allocation keeps each field on the line it was laid out
// on.
func TestRecFIFOLayout(t *testing.T) {
	const line = 64
	var f RecFIFO
	type field struct {
		name      string
		off, size uintptr
	}
	lineOf := func(x field) (first, last uintptr) {
		return x.off / line, (x.off + x.size - 1) / line
	}
	producerRead := []field{
		{"id", unsafe.Offsetof(f.id), unsafe.Sizeof(f.id)},
		{"shards", unsafe.Offsetof(f.shards), unsafe.Sizeof(f.shards)},
		{"region", unsafe.Offsetof(f.region), unsafe.Sizeof(f.region)},
	}
	consumerWritten := []field{
		{"next", unsafe.Offsetof(f.next), unsafe.Sizeof(f.next)},
	}
	hwm := field{"occHWM", unsafe.Offsetof(f.occHWM), unsafe.Sizeof(f.occHWM)}

	if n := unsafe.Sizeof(f); n%line != 0 {
		t.Fatalf("unsafe.Sizeof(RecFIFO{}) = %d, not a multiple of %d", n, line)
	}
	lines := map[uintptr]string{}
	for _, p := range producerRead {
		a, b := lineOf(p)
		for l := a; l <= b; l++ {
			lines[l] = p.name
		}
	}
	for _, c := range consumerWritten {
		a, b := lineOf(c)
		for l := a; l <= b; l++ {
			if p, ok := lines[l]; ok {
				t.Errorf("consumer-written %s shares line %d with producer-read %s", c.name, l, p)
			}
		}
	}
	a, b := lineOf(hwm)
	for _, o := range append(producerRead, consumerWritten...) {
		oa, ob := lineOf(o)
		if oa <= b && a <= ob {
			t.Errorf("occHWM shares a line with %s", o.name)
		}
	}

	res, err := newTestFabric(t).Node(0).AllocContext(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := uintptr(unsafe.Pointer(res.Rec)); p%line != 0 {
		t.Errorf("allocated RecFIFO at %#x, not %d-byte aligned", p, line)
	}
}
