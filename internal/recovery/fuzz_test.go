package recovery

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRestoreBlob holds the snapshot decoder to its contract under
// arbitrary input: it either returns a snapshot that re-encodes to a
// decodable blob, or a typed ErrCorruptSnapshot — never a panic, never
// an untyped error. The seed corpus is real Encode output (valid blobs
// plus targeted mutations), so the fuzzer starts on the interesting
// boundaries instead of deep in reject-at-magic territory.
func FuzzRestoreBlob(f *testing.F) {
	f.Add([]byte(nil))
	for _, s := range []*Snapshot{
		{Node: 0, Version: 0},
		{Node: 3, Version: 42, Data: []byte("round-42 digest state")},
		{Node: 7, Version: 1, Data: bytes.Repeat([]byte{0x5a}, 512)},
	} {
		blob := s.Encode()
		f.Add(blob)
		f.Add(blob[:len(blob)-1])          // truncated crc
		f.Add(blob[:snapHeader])           // header only
		f.Add(append(blob[:0:0], blob...)) // full copy for mutation
		mut := append(blob[:0:0], blob...)
		mut[18] ^= 0x80 // length field bit flip
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := DecodeSnapshot(blob)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("decode error not typed: %v", err)
			}
			return
		}
		// Accepted blobs must round-trip through Encode.
		again, err := DecodeSnapshot(s.Encode())
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot does not decode: %v", err)
		}
		if again.Node != s.Node || again.Version != s.Version || !bytes.Equal(again.Data, s.Data) {
			t.Fatalf("re-encode round trip mismatch: %+v vs %+v", again, s)
		}
	})
}
