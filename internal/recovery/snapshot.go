// Package recovery is the self-healing subsystem of the simulated BG/Q
// partition: buddy-replicated in-memory checkpoints plus a supervisor
// that turns a confirmed node death into an online restart — detect →
// fence → restore → resume — with no operator in the loop and no
// quiescence of the whole run.
//
// The checkpoint scheme is the FTC-Charm++ double in-memory checkpoint:
// each node's application state snapshot is kept locally *and*
// replicated to a deterministic buddy node chosen from a different
// failure domain (a different OS process when the partition spans
// processes over internal/wire; in a single-process machine the node
// itself is the failure domain and the buddy is simply the next node).
// Checkpoints are asynchronous: a node saves whenever its own progress
// marker crosses the interval, with no barrier and no quiescence — a
// replica may lag its local twin by an interval, which only means the
// restart replays a little more.
//
// Recovery is driven by the phi-accrual detector's death confirmation.
// The supervisor fences the dead epoch (the existing death wiring has
// already failed flows and shrunk classroutes), revives the victim's
// ranks through the machine's revival chain, and publishes the buddy's
// replica as the node's restore. The victim's own task goroutine takes
// it and replays forward from the snapshot's version; no goroutine is
// started for it. Unaffected flows keep progressing throughout:
// nothing stops the world.
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"pamigo/internal/torus"
)

// ErrCorruptSnapshot reports that a checkpoint/replica blob failed
// structural or integrity validation. A corrupted buddy replica is
// rejected with this error — never a panic — and the restart falls
// back to an older replica or a fresh start.
var ErrCorruptSnapshot = errors.New("recovery: corrupt snapshot blob")

// Snapshot is one node's application state at one point of progress.
// Version is an application-defined monotonic marker (the demo drivers
// use the round number); the store keeps only the newest version per
// node, so reordered or duplicated replication frames are harmless.
type Snapshot struct {
	Node    torus.Rank
	Version uint64
	Data    []byte
}

// Blob layout:
//
//	| magic u32 | format u16 | node u32 | version u64 | len u32 | data | crc u32 |
//
// crc is CRC-32C over everything before it. Every length is validated
// against the bytes actually present before any allocation.
const (
	snapMagic  = uint32(0x70615253) // "paRS"
	snapFormat = uint16(1)
	snapHeader = 4 + 2 + 4 + 8 + 4
	snapTrail  = 4

	// maxSnapData bounds one node's snapshot payload — structural sanity
	// against corrupt length fields, comfortably above anything the
	// wire transport could even carry in a replica frame.
	maxSnapData = 16 << 20
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the snapshot into a self-validating blob.
func (s *Snapshot) Encode() []byte {
	b := make([]byte, snapHeader+len(s.Data)+snapTrail)
	binary.BigEndian.PutUint32(b[0:], snapMagic)
	binary.BigEndian.PutUint16(b[4:], snapFormat)
	binary.BigEndian.PutUint32(b[6:], uint32(s.Node))
	binary.BigEndian.PutUint64(b[10:], s.Version)
	binary.BigEndian.PutUint32(b[18:], uint32(len(s.Data)))
	copy(b[snapHeader:], s.Data)
	crc := crc32.Checksum(b[:snapHeader+len(s.Data)], snapCRC)
	binary.BigEndian.PutUint32(b[snapHeader+len(s.Data):], crc)
	return b
}

// DecodeSnapshot parses and verifies a snapshot blob. Every failure is
// a typed ErrCorruptSnapshot — a hostile or bit-flipped blob can never
// panic the decoder (FuzzRestoreBlob holds it to that). Data is copied
// out of the input, so the blob may be a transient view into a network
// read buffer.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < snapHeader+snapTrail {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrCorruptSnapshot, len(b), snapHeader+snapTrail)
	}
	if got := binary.BigEndian.Uint32(b[0:]); got != snapMagic {
		return nil, fmt.Errorf("%w: magic %08x, want %08x", ErrCorruptSnapshot, got, snapMagic)
	}
	if got := binary.BigEndian.Uint16(b[4:]); got != snapFormat {
		return nil, fmt.Errorf("%w: format %d, want %d", ErrCorruptSnapshot, got, snapFormat)
	}
	n := binary.BigEndian.Uint32(b[18:])
	if n > maxSnapData {
		return nil, fmt.Errorf("%w: data length %d exceeds %d", ErrCorruptSnapshot, n, maxSnapData)
	}
	if int(n) != len(b)-snapHeader-snapTrail {
		return nil, fmt.Errorf("%w: data length %d in %d-byte blob", ErrCorruptSnapshot, n, len(b))
	}
	want := binary.BigEndian.Uint32(b[snapHeader+int(n):])
	if got := crc32.Checksum(b[:snapHeader+int(n)], snapCRC); got != want {
		return nil, fmt.Errorf("%w: crc %08x, want %08x", ErrCorruptSnapshot, got, want)
	}
	s := &Snapshot{
		Node:    torus.Rank(binary.BigEndian.Uint32(b[6:])),
		Version: binary.BigEndian.Uint64(b[10:]),
	}
	if n > 0 {
		s.Data = append([]byte(nil), b[snapHeader:snapHeader+int(n)]...)
	}
	return s, nil
}
