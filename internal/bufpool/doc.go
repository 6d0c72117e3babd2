// Package bufpool is the zero-allocation buffer plane under the packet
// path: size-classed, sync.Pool-backed slabs for packet payloads and
// header metadata, with explicit reference-counted ownership.
//
// The Blue Gene/Q Message Unit moves packets with no per-packet memory
// management in software — FIFO slots are hardware SRAM and reception
// memory is pinned at boot. The functional reproduction previously paid
// a Go allocation per packet payload and per header-metadata blob, so
// garbage collection, not the modeled software path, dominated the
// Go-side cost of the hot benchmarks. This package removes that cost:
// in steady state the packet path performs zero heap allocations.
//
// # Ownership contract
//
//   - Get(n) hands out a *Buf with reference count 1. The holder of a
//     reference owns the bytes until it calls Release.
//   - A layer that stores a buffer beyond its current call frame —
//     the reliable-delivery retransmit window, a delayed-packet list, a
//     reception FIFO — must Retain before storing and Release when done.
//   - When the count reaches zero the slab returns to its size-class
//     pool and MUST NOT be touched again; Release of the last reference
//     is the moment of transfer back to the allocator.
//   - Dispatch handlers never see a *Buf: they receive plain []byte
//     views that are valid only for the duration of the handler call
//     (the PAMI "pipe address" contract). A handler that keeps payload
//     or metadata must copy it out.
//
// Buffers larger than the biggest size class fall back to the regular
// allocator (counted by the oversize counter) and are dropped on
// Release rather than pooled.
//
// Pool health is observable through the package telemetry registry
// (adopted into every machine's tree as the "bufpool" group): the live
// gauge counts buffers currently checked out (its high-water mark is
// peak buffer exposure), misses counts Gets the pool could not serve
// without a fresh allocation, and gets/puts/oversize complete the
// picture. Get and Release each write one counter, the class's own
// gets or puts; gets, misses and live are folded from the per-class
// counts (plus the oversize count and, under bufpooldebug, the
// quarantine) when a snapshot or Live reads them, and live's high-water
// mark is sampled there. The pools are process-global, exactly like the
// Go allocator they stand in front of.
package bufpool
