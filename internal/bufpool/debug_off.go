//go:build !bufpooldebug

package bufpool

// DebugEnabled reports whether the bufpooldebug build tag is active.
// Without it the debug hooks below are empty and inline away — the hot
// path pays nothing.
const DebugEnabled = false

func debugQuarantine(*Buf) bool { return false }

func debugQuarantined() int64 { return 0 }

func debugViolation(*Buf, string) {}

func debugCheckUsable(*Buf) {}
