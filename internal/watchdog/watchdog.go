// Package watchdog arms a wall-clock deadline on a process. If the
// deadline passes before Stop is called, every goroutine stack is dumped
// to stderr and the process exits non-zero. The CLI tools use it (via
// their -deadline flags) so a hung run under fault injection — a lost
// wakeup, a livelocked retransmit loop — turns into a diagnosable stack
// dump instead of a silent stall.
package watchdog

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// Overridable for tests; the real watchdog kills the process.
var (
	exit func(int) = os.Exit
	out  io.Writer = os.Stderr
)

// ExitCode is the process exit status used when the deadline fires.
const ExitCode = 2

// Start arms a watchdog that fires after d. The returned stop function
// disarms it; calling stop more than once is safe. A non-positive d
// arms nothing.
func Start(d time.Duration, label string) (stop func()) {
	if d <= 0 {
		return func() {}
	}
	observe()
	done := make(chan struct{})
	go func() {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
			fmt.Fprintf(out, "watchdog: %s still running after %v\n\n", label, d)
			DumpTo(out, label)
			exit(ExitCode)
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Stacks returns the stack traces of every live goroutine.
func Stacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
