package mpilib

import (
	"testing"
	"time"

	"pamigo/internal/cnk"
	"pamigo/internal/machine"
	"pamigo/internal/torus"
)

// BenchmarkAlltoallPhased times the phased pairwise exchange (one
// exchange in flight per phase) on 8 ranks with 1 KiB blocks:
//
//	go test -bench 'Alltoall' ./internal/mpilib/
func BenchmarkAlltoallPhased(b *testing.B) {
	m, err := machine.New(machine.Config{Dims: torus.Dims{2, 2, 2, 1, 1}, PPN: 1})
	if err != nil {
		b.Fatal(err)
	}
	const blk = 1024
	var elapsed time.Duration
	m.Run(func(p *cnk.Process) {
		w, err := Init(m, p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Finalize()
		cw := w.CommWorld()
		send := make([]byte, blk*w.Size())
		recv := make([]byte, blk*w.Size())
		cw.Barrier()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if err := cw.Alltoall(send, blk, recv); err != nil {
				panic(err)
			}
		}
		cw.Barrier()
		if w.Rank() == 0 {
			elapsed = time.Since(start)
		}
	})
	b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N), "us/op")
	// Traffic profile from the machine's telemetry: packets per alltoall
	// and the peak reception-FIFO depth the exchange pattern produced.
	counters, gauges := m.Telemetry().Snapshot().Totals()
	b.ReportMetric(float64(counters["packets"])/float64(b.N), "pkts/op")
	b.ReportMetric(float64(gauges["occupancy"].HighWater), "fifo-hwm")
}
