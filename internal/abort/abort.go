// Package abort defines the typed cancellation vocabulary for every
// blocking wait in the runtime. The paper's runtime blocks freely —
// L2-atomic barriers, wakeup-unit waits, collective-network credit
// gates — because BG/Q hardware never lies; our reproduction runs over
// lossy links and SIGKILLed processes, where a wait can outlive the
// event it is waiting for. Every park site therefore returns an error
// wrapping ErrAborted instead of hanging, and the error carries a Cause
// that says what cut the wait short (a confirmed peer death, a stall
// deadline, a user cancellation) and at which wait site.
//
// The package is a vocabulary, not a mechanism: it holds no state and
// wakes nobody. The stall sentinel's park hook cuts a waiter loose by
// latching a Cause in the primitive the waiter sleeps on, and each such
// latch keeps the first cause it is given; a later one, racing for the
// same wait, describes the same incident and is dropped.
package abort

import (
	"errors"
	"fmt"
)

// ErrAborted is the sentinel wrapped by every abortable wait's failure.
// Callers discriminate with errors.Is(err, abort.ErrAborted).
var ErrAborted = errors.New("abort: wait aborted")

// Kind classifies why a wait was cut short.
type Kind uint8

// Abort kinds.
const (
	KindUnknown  Kind = iota
	KindHealth        // cluster membership changed under the wait (peer death or revival)
	KindDeadline      // a stall-sentinel or watchdog deadline expired
	KindUser          // explicit application-level cancellation
)

func (k Kind) String() string {
	switch k {
	case KindHealth:
		return "health"
	case KindDeadline:
		return "deadline"
	case KindUser:
		return "user"
	default:
		return "unknown"
	}
}

// Cause is one typed abort reason: the kind, the wait site it fired at
// (a stable dotted name like "collnet.join.credit"), an optional
// detail error (e.g. health's ErrPeerDead), and a free-form message.
// Cause satisfies errors.Is(c, ErrAborted) and, when Detail is set,
// errors.Is/As against the detail chain.
type Cause struct {
	Kind   Kind
	Site   string
	Detail error
	msg    string
}

// Causef builds a Cause with a formatted message and no detail error.
func Causef(kind Kind, site, format string, args ...any) *Cause {
	return &Cause{Kind: kind, Site: site, msg: fmt.Sprintf(format, args...)}
}

// Wrap builds a Cause carrying a detail error. The detail stays
// reachable through errors.Is/As, so existing typed sentinels
// (mu.ErrPeerDead, health.ErrEpochChanged) keep matching.
func Wrap(kind Kind, site string, detail error) *Cause {
	return &Cause{Kind: kind, Site: site, Detail: detail}
}

func (c *Cause) Error() string {
	s := fmt.Sprintf("aborted (%s) at %s", c.Kind, c.Site)
	if c.msg != "" {
		s += ": " + c.msg
	}
	if c.Detail != nil {
		s += ": " + c.Detail.Error()
	}
	return s
}

// Unwrap exposes both the ErrAborted sentinel and the detail chain.
func (c *Cause) Unwrap() []error {
	if c.Detail != nil {
		return []error{ErrAborted, c.Detail}
	}
	return []error{ErrAborted}
}
