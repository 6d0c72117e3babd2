package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// perLayerRun is the traced run of one workload: the workload untraced and
// traced at a quarter of the window each, then the ladder on the other
// half.
func perLayerRun(w *workload, seed int64, window time.Duration, traceOut string, o options, acct *account, names []specMetric, metrics map[string]metric) {
	vals := map[string]float64{}
	workloadLayers(w, seed, window/4, traceOut, o, acct, vals)
	runLadder(window/2, acct, vals)
	budget(seed, window/40, o, acct, vals)
	fillPerLayer(names, vals, acct, metrics)
}

// fillPerLayer reports exactly the per-layer metrics BENCHMARK.json names,
// with its units: the ladder rungs are the same whatever the workload, and a
// count the workload does not exercise is 0. A value measured under a name
// BENCHMARK.json does not have is a failure, so the two cannot drift apart.
func fillPerLayer(names []specMetric, vals map[string]float64, acct *account, metrics map[string]metric) {
	for _, m := range names {
		metrics[m.Name] = metric{vals[m.Name], m.Unit}
		delete(vals, m.Name)
	}
	for name := range vals {
		acct.fail(1, "per-layer metric %s is not in BENCHMARK.json", name)
	}
}

// workloadLayers measures the per-layer metrics that depend on the
// workload. The per-op counts come from an untraced instance, whose
// telemetry is read between two quiescent points, so on a lossless workload
// they are exact; the span figures come from a traced one.
func workloadLayers(w *workload, seed int64, window time.Duration, traceOut string, o options, acct *account, vals map[string]float64) {
	plain := newEnv(w, seed, window, o, acct, false)
	w.run(plain)
	traced := newEnv(w, seed, window, o, acct, true)
	w.run(traced)
	if acct.failed.Load() > 0 || len(plain.lat) == 0 || len(traced.lat) == 0 {
		acct.fail(1, "%s: traced run did not finish a timed batch", w.name)
		return
	}
	if traceOut == "" {
		traceOut = filepath.Join(".bench_out", "trace-"+w.name+".json")
	}
	if err := writeTrace(traceOut, w.name, seed, traced.traces); err != nil {
		acct.fail(1, "%s: writing %s: %v", w.name, traceOut, err)
		return
	}
	set := func(name string, v float64) { vals[name] = v }
	per := func(n int64, d float64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d
	}
	ops := float64(plain.total)

	set("machine.allocs_per_op", per(int64(plain.memEnd.Mallocs-plain.memBase.Mallocs), float64(plain.ops)))
	set("machine.heap_sys_mb", float64(plain.memEnd.HeapSys)/(1<<20))
	set("bufpool.misses_per_kop", 1e3*per(plain.missEnd-plain.missBase, ops))

	// A message that crosses the wire is accounted on both machines, and so
	// is a control message.
	packets := plain.delta("mu", "packets")
	set("mu.packets_per_op", per(packets-plain.control*int64(len(plain.machines)), ops))
	set("mu.rec_occupancy_hwm", float64(plain.gauge("mu", "occupancy").HighWater))
	set("mu.rec_overflow_hwm", float64(plain.gauge("mu", "overflow_hwm").HighWater))
	retransmits := plain.delta("mu", "retransmits")
	set("mu.retransmits_per_kop", 1e3*per(retransmits, ops))
	// The wire transport has an acks_sent of its own, in its own group.
	set("mu.acks_per_op", per(plain.delta("mu", "acks_sent"), ops))
	set("mu.credit_stalls_per_kop", 1e3*per(plain.delta("mu", "credit_stalls"), ops))
	set("mu.useful_ratio", 1)
	if packets > 0 {
		set("mu.useful_ratio", per(packets, float64(packets+retransmits)))
	}

	set("core.advances_per_msg", per(plain.delta("core", "advances"), float64(plain.delta("core", "dispatches"))))
	set("core.throttled_per_kop", 1e3*per(plain.throttled.Load(), ops))
	set(w.top+".op_us_p99", quantile(sortedCopy(plain.lat), 0.99))
	set("mpilib.match_scans_per_msg", per(plain.delta("mpi", "match_attempts"), float64(plain.delta("mpi", "match_hits"))))
	set("collnet.ops_per_op", per(plain.delta("collnet", "reductions")+plain.delta("collnet", "broadcasts")+plain.delta("collnet", "barriers"), ops))

	msgs := ops + float64(plain.control)
	set("wire.frames_per_msg", per(plain.delta("wire", "frames_sent"), msgs))
	set("wire.bytes_per_msg", per(plain.delta("wire", "bytes_sent"), msgs))
	set("wire.acks_per_msg", per(plain.delta("wire", "acks_sent"), msgs))
	set("wire.resends", float64(plain.delta("wire", "resends")))
	set("wire.backpressured", float64(plain.delta("wire", "backpressure_refusals")))

	tr := traced.traces
	set("core.send_ns_p50", spanP50(tr, spSendImmediate, spSendImmediateBuf, spSend))
	set("core.advance_ns_per_msg", spanTotal(tr, spAdvance, spAdvanceUntil)/float64(max(traced.delta("core", "dispatches"), 1)))
	set("mpilib.send_ns_p50", spanP50(tr, spMPISend, spMPIIsend))
	set("mpilib.recv_ns_p50", spanP50(tr, spMPIRecv, spMPIIrecv))
	set("mpilib.allreduce_ns_p50", spanP50(tr, spMPIAllreduce))

	plainRate := float64(plain.ops) / plain.elapsed.Seconds()
	tracedRate := float64(traced.ops) / traced.elapsed.Seconds()
	set("trace.overhead_pct", 100*(plainRate-tracedRate)/plainRate)
	fmt.Printf("%s: untraced %.0f op/s over %d samples, traced %.0f op/s over %d samples; spans in %s\n",
		w.name, plainRate, len(plain.lat), tracedRate, len(traced.lat), traceOut)
}

// budget runs the two ping-pongs briefly, side by side in time, for the two
// figures that need both: the MPI overhead per half round trip, and how
// much of the core half round trip the two largest ladder terms leave
// unexplained.
func budget(seed int64, window time.Duration, o options, acct *account, vals map[string]float64) {
	var halfRT [2]float64
	for i, name := range []string{"pingpong_0b", "mpi_pingpong_0b"} {
		w := findWorkload(name)
		e := newEnv(w, seed, window, o, acct, false)
		w.run(e)
		if len(e.lat) == 0 {
			acct.fail(1, "budget: %s did not finish a timed batch", name)
			return
		}
		halfRT[i] = 1e3 * median(e.lat)
	}
	dispatch, handoff := vals["core.send_dispatch_ns_0b"], vals["wakeup.handoff_ns"]
	vals["mpilib.overhead_ns"] = halfRT[1] - halfRT[0]
	vals["budget.residual_pct"] = 100 * (halfRT[0] - dispatch - handoff) / halfRT[0]
	fmt.Printf("budget: pingpong_0b half round trip %.0f ns = core.send_dispatch_ns_0b %.0f + wakeup.handoff_ns %.0f + residual %.0f ns\n",
		halfRT[0], dispatch, handoff, halfRT[0]-dispatch-handoff)
}
