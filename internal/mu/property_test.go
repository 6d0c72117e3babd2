package mu

import (
	"bytes"
	"testing"
	"testing/quick"

	"pamigo/internal/bufpool"
	"pamigo/internal/torus"
)

// Property: any payload survives packetization + reassembly byte-exact,
// with every packet within the hardware payload limit, offsets forming a
// perfect tiling and the metadata on the first packet only — through
// either entry point, for sizes on both sides of the inline cut
// (quick's own slices are at most 50 bytes: all inline) and of the
// packet cut, and with every pooled buffer back afterwards.
func TestPacketizationRoundTripQuick(t *testing.T) {
	f := func(small []byte, sizeSel, metaLen uint8, seed uint16, transfer bool) bool {
		payload := small
		if n := []int{-1, InlineMax, InlineMax + 1, MaxPayload, MaxPayload + 1, 5*MaxPayload + int(seed)%MaxPayload}[sizeSel%6]; n >= 0 {
			payload = testMessage(int(seed), 1, n)
		}
		meta := testMessage(int(seed), 2, int(metaLen)%(InlineMax+8))
		live0, _ := bufpool.Live()
		f2, err := NewFabric(torus.Dims{2, 1, 1, 1, 1}, 8)
		if err != nil {
			return false
		}
		f2.MapTask(0, 0)
		f2.MapTask(1, 1)
		src, err := f2.Node(0).AllocContext(1, nil)
		if err != nil {
			return false
		}
		dst, err := f2.Node(1).AllocContext(1, nil)
		if err != nil {
			return false
		}
		f2.RegisterContext(TaskAddr{1, 0}, dst.Rec)
		hdr := Header{Dispatch: 1, Origin: TaskAddr{0, 0}, Seq: uint64(seed), Meta: meta}
		if transfer {
			err = f2.InjectMemFIFOBuf(src.PinnedInj(1), TaskAddr{1, 0}, hdr, bufpool.GetCopy(payload))
		} else {
			err = f2.InjectMemFIFO(src.PinnedInj(1), TaskAddr{1, 0}, hdr, payload)
		}
		if err != nil {
			return false
		}
		out := make([]byte, len(payload))
		covered := make([]bool, len(payload))
		for {
			p, ok := dst.Rec.Poll()
			if !ok {
				break
			}
			h, chunk := p.Header(), p.Payload()
			if len(chunk) > MaxPayload || h.Total != len(payload) || h.Seq != uint64(seed) {
				return false
			}
			if (h.Offset == 0) != bytes.Equal(h.Meta, meta) && len(meta) > 0 {
				return false // metadata missing from the first packet, or on a later one
			}
			for i := range chunk {
				if covered[h.Offset+i] {
					return false // overlapping chunks
				}
				covered[h.Offset+i] = true
			}
			copy(out[h.Offset:], chunk)
			p.Release()
		}
		for _, c := range covered {
			if !c {
				return false // gap
			}
		}
		live, _ := bufpool.Live()
		return bytes.Equal(out, payload) && live == live0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: puts at random offsets land exactly where addressed and
// never clobber neighbors.
func TestPutOffsetsQuick(t *testing.T) {
	f := func(data []byte, offRaw uint8) bool {
		if len(data) == 0 {
			data = []byte{0xAA}
		}
		if len(data) > 64 {
			data = data[:64]
		}
		window := make([]byte, 256)
		for i := range window {
			window[i] = 0xEE
		}
		off := int(offRaw) % (len(window) - len(data))
		f2, err := NewFabric(torus.Dims{2, 1, 1, 1, 1}, 8)
		if err != nil {
			return false
		}
		f2.MapTask(0, 0)
		f2.MapTask(1, 1)
		src, _ := f2.Node(0).AllocContext(1, nil)
		dst, _ := f2.Node(1).AllocContext(1, nil)
		f2.RegisterContext(TaskAddr{1, 0}, dst.Rec)
		f2.RegisterMemregion(1, 9, window)
		if err := f2.InjectPut(src.PinnedInj(1), 0, data, TaskAddr{1, 0}, 9, off, nil); err != nil {
			return false
		}
		for i := range window {
			if i >= off && i < off+len(data) {
				if window[i] != data[i-off] {
					return false
				}
			} else if window[i] != 0xEE {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
