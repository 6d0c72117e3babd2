//go:build bufpooldebug

// Build with `-tags bufpooldebug` to turn refcount misuse — the top bug
// class once ownership-transfer injection exists — into an immediate
// panic that names both crime scenes. Released buffers are quarantined
// instead of repooled, so a stale handle can never alias a new owner's
// slab: any later Bytes/Retain/Release on it is definitively a
// use-after-release and panics with the stack that released it alongside
// the stack that misused it. The quarantine leaks released slabs by
// design; this tag is for tests and bug hunts, not production runs.
package bufpool

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DebugEnabled reports whether the bufpooldebug build tag is active.
const DebugEnabled = true

// quarantine maps a released *Buf to the stack that performed the final
// Release; quarantined counts them, so Live can fold them out.
var (
	quarantine  sync.Map
	quarantined atomic.Int64
)

func debugQuarantine(b *Buf) bool {
	quarantine.Store(b, debug.Stack())
	quarantined.Add(1)
	return true
}

func debugQuarantined() int64 { return quarantined.Load() }

func debugViolation(b *Buf, what string) {
	if st, ok := quarantine.Load(b); ok {
		panic(fmt.Sprintf("bufpool: %s of a buffer released at:\n%s--- current stack:\n%s",
			what, st, debug.Stack()))
	}
	panic(fmt.Sprintf("bufpool: %s at:\n%s", what, debug.Stack()))
}

func debugCheckUsable(b *Buf) {
	if b == nil {
		return
	}
	if b.refs.Load() <= 0 {
		debugViolation(b, "use (Bytes) of a released buffer")
	}
}
