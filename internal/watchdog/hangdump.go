// Package watchdog turns a stall into a diagnosis. Start arms a
// wall-clock deadline on a process: if it passes before the returned stop
// is called, the hang dump is written to stderr and the process exits
// non-zero. The CLI tools use it (via their -deadline flags) so a hung
// run under fault injection — a lost wakeup, a livelocked retransmit loop
// — turns into a diagnosable dump instead of a silent stall. The dump
// opens with every registered stall sentinel's wait-site table (see
// Sentinel), then the goroutine stacks; InstallHangDump prints the same
// dump on SIGQUIT.
package watchdog

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
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
	t := time.AfterFunc(d, func() {
		fmt.Fprintf(out, "watchdog: %s still running after %v\n\n", label, d)
		DumpTo(out, label)
		exit(ExitCode)
	})
	return func() { t.Stop() }
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

// The hang-dump registry: every live machine registers a dumper that
// renders its stall-sentinel wait-site table. The SIGQUIT handler (the
// CLI -hang-dump flag) and the deadline watchdog both print the
// registered tables ahead of the goroutine dump, so a field hang shows
// *which named wait* is stuck before the wall of stacks.
var (
	dumpMu   sync.Mutex
	dumpers  map[int]func(io.Writer)
	dumpNext int

	// live is every sentinel not yet stopped, and observing whether a hang
	// dump can be asked for: from then on each of them scans every
	// idleScan, so that the ages the dump prints are good to that, armed or
	// not. Until then an unarmed sentinel runs no scanner at all — a wait
	// costs its two stores and nothing else, not even a timer.
	live      = map[*Sentinel]struct{}{}
	observing bool
	idleScan  = time.Second
)

// enroll adds a new sentinel to live; forget removes a stopped one.
func enroll(s *Sentinel) {
	dumpMu.Lock()
	defer dumpMu.Unlock()
	live[s] = struct{}{}
	if observing {
		go s.scan(idleScan)
	}
}

func forget(s *Sentinel) {
	dumpMu.Lock()
	defer dumpMu.Unlock()
	delete(live, s)
}

// observe is called by whatever makes a hang dump possible.
func observe() {
	dumpMu.Lock()
	defer dumpMu.Unlock()
	if !observing {
		observing = true
		for s := range live {
			go s.scan(idleScan)
		}
	}
}

// RegisterDump adds a section to every future hang dump and returns a
// function that removes it again (call it on shutdown).
func RegisterDump(fn func(io.Writer)) (unregister func()) {
	dumpMu.Lock()
	defer dumpMu.Unlock()
	if dumpers == nil {
		dumpers = make(map[int]func(io.Writer))
	}
	id := dumpNext
	dumpNext++
	dumpers[id] = fn
	return func() {
		dumpMu.Lock()
		defer dumpMu.Unlock()
		delete(dumpers, id)
	}
}

// DumpTo writes every registered section followed by the stacks of all
// live goroutines.
func DumpTo(w io.Writer, label string) {
	fmt.Fprintf(w, "=== hang dump: %s ===\n", label)
	dumpMu.Lock()
	fns := make([]func(io.Writer), 0, len(dumpers))
	for id := 0; id < dumpNext; id++ {
		if fn, ok := dumpers[id]; ok {
			fns = append(fns, fn)
		}
	}
	dumpMu.Unlock()
	if len(fns) == 0 {
		fmt.Fprintln(w, "(no stall sentinels registered)")
	}
	for _, fn := range fns {
		fn(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "--- goroutines ---\n%s\n", Stacks())
}

// InstallHangDump starts a SIGQUIT listener that prints the hang dump
// to stderr and keeps the process running, so a wedged run can be
// probed repeatedly (watch the oldest-park ages grow) without killing
// it. Installing replaces the Go runtime's default SIGQUIT behaviour
// (dump and die) for this process.
func InstallHangDump(label string) {
	observe()
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			DumpTo(os.Stderr, label)
		}
	}()
}
