package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"pamigo/internal/machine"
	"pamigo/internal/scenario"
	"pamigo/internal/torus"
)

// printStats is the -stats report: the machine's telemetry totals and,
// in wire mode (the wire group has the frames per socket read and write,
// the writer hand-offs, the drops by cause), how every peer link fared
// and why it last broke.
func printStats(m *machine.Machine) {
	fmt.Println()
	fmt.Println("telemetry totals (full tree: m.Telemetry().Snapshot().JSON()):")
	fmt.Print(m.Telemetry().Snapshot().RenderTotals())
	if w := m.Wire(); w != nil {
		w.WriteLinks(os.Stdout)
	}
}

// validateWireFlags checks the multi-process flag set up front, so a
// typo fails in milliseconds with a message naming the fix instead of a
// partition that hangs waiting for a peer that can never exist.
func validateWireFlags(dims torus.Dims, ppn int, listen, joinCSV, rankRange string, partition uint64, dieRound int) (scenario.Span, error) {
	nTasks := dims.Nodes() * ppn
	wf := scenario.Span{Listen: listen, Partition: partition, DieRound: dieRound, Lo: 0, Hi: nTasks}
	if joinCSV != "" {
		for _, a := range strings.Split(joinCSV, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return wf, fmt.Errorf("-join %q has an empty address: give a comma-separated list like 127.0.0.1:7000,unix:/tmp/p1.sock", joinCSV)
			}
			wf.Join = append(wf.Join, a)
		}
	}
	if rankRange != "" {
		lo, hi, ok := parseRankRange(rankRange)
		if !ok {
			return wf, fmt.Errorf(`-rank-range must be "lo:hi" (a half-open task range, e.g. 0:2), got %q`, rankRange)
		}
		if lo < 0 || hi > nTasks {
			return wf, fmt.Errorf("-rank-range %s is outside the partition: %s with -ppn %d has tasks [0,%d)", rankRange, dims, ppn, nTasks)
		}
		if lo >= hi {
			return wf, fmt.Errorf("-rank-range %s is empty: lo must be below hi", rankRange)
		}
		if lo%ppn != 0 || hi%ppn != 0 {
			return wf, fmt.Errorf("-rank-range %s splits a node: with -ppn %d both bounds must be multiples of %d so same-node tasks share a process (the shared-memory path requires it)", rankRange, ppn, ppn)
		}
		wf.Lo, wf.Hi = lo, hi
	}
	partial := wf.Lo != 0 || wf.Hi != nTasks
	if partial && listen == "" && len(wf.Join) == 0 {
		return wf, fmt.Errorf("-rank-range %d:%d hosts only %d of %d tasks but neither -listen nor -join is set: the rest of the partition would be unreachable (add -listen to accept peers, -join to dial them, or host the full range)", wf.Lo, wf.Hi, wf.Hi-wf.Lo, nTasks)
	}
	if dieRound >= 0 {
		if dieRound >= scenario.ExchangeRounds {
			return wf, fmt.Errorf("-die-round %d is past the end of the shakedown: rounds run 0..%d", dieRound, scenario.ExchangeRounds-1)
		}
		if listen == "" && len(wf.Join) == 0 {
			return wf, fmt.Errorf("-die-round needs a multi-process run: add -listen/-join so a survivor exists to recover")
		}
	}
	return wf, nil
}

func parseRankRange(s string) (lo, hi int, ok bool) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, false
	}
	lo, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	hi, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	return lo, hi, err1 == nil && err2 == nil
}
