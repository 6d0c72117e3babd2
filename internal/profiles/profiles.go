// Package profiles wires the standard runtime/pprof file outputs into
// cmd/paperbench's -cpuprofile and -memprofile flags, so profiling a
// model or DES run is one flag away instead of a rebuild with testing
// harness scaffolding.
package profiles

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling when cpuPath is non-empty and returns a
// stop function that ends the CPU profile and, when memPath is
// non-empty, writes a heap profile (after a GC, so the live set is
// accurate). The stop function is safe to call exactly once; with both
// paths empty it is a no-op.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiles: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiles: start cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "profiles: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows the live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "profiles: write heap profile: %v\n", err)
			}
		}
	}, nil
}
