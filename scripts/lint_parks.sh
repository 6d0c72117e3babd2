#!/bin/sh
# Abortable-wait lint (grep-based): every blocking park in the runtime
# must be reachable by the one cancellation path — a sentinel-registered
# watchdog.Park whose hook cuts the waiter loose by latching a cause in
# the primitive it sleeps on (failFlow, ClassRoute.Poison,
# Context.Abort), plus the node team's poison — so the partition stall
# sentinel can observe and escalate it (DESIGN §8). A wait the sentinel
# cannot see is a silent hang waiting to happen.
#
# The check is deliberately dumb: it counts raw park primitives
# (sync.NewCond, channel construction in the abortable layers) and raw
# runtime.Gosched() spins per file against a pinned allowlist. Adding a new raw park — a new cond,
# a new gate channel — fails until the allowlist is extended, which is
# the moment to route the wait through an abortable primitive instead,
# or to justify it here (zero-alloc fast paths that never block, stop/
# done plumbing that only closes, never parks a peer's progress).
#
# It also keeps fabric-wide shared state off the message path. In the
# non-test Go of core, mu, cnk, shmem and mpilib it fails on a
# package-level sync or atomic variable (state every machine in the
# process shares, so a result depends on what ran before) and on a
# sync.RWMutex outside the one pinned below: the shmem.Node endpoint
# registry, the last such shape ROADMAP lists.
#
# And it keeps one membership record. The health monitor alone says
# which nodes are dead; the fabric and the collective network ask it. A
# map[torus.Rank]bool in the non-test Go of internal/ is how a second
# dead-node set would come back, so it fails everywhere but in
# internal/health and internal/netsim (the BFS seen set of its route
# search).
#
# And it keeps one judge of death in the reliable layer. A flow fails
# only when the health monitor confirms a death (MarkNodeDead), when a
# revival resets it (ReviveNode), or when the stall sentinel escalates a
# sender parked at the window/credit gate (awaitWindowLocked); Close
# stops the layer without failing anything. So the non-test Go of
# internal/mu calls failFlow( from exactly those three functions, once
# each. A fourth caller is a sender-side clock deciding that a silent
# peer is dead, which is the monitor's to say: it fails here.
set -eu
cd "$(dirname "$0")/.."

fail=0

# check PATTERN FILE MAX — fail when FILE contains more than MAX
# occurrences of PATTERN outside comment lines.
check() {
	got=$(grep -v '^\s*//' "$2" | grep -c "$1" || true)
	if [ "$got" -gt "$3" ]; then
		echo "lint_parks: $2 has $got '$1' (allowlist pins $3): new raw parks must use the abortable primitives (see DESIGN §8)" >&2
		fail=1
	fi
}

# No sync.NewCond outside the allowlisted owners.
for f in $(grep -rl "sync.NewCond" --include="*.go" . | grep -v _test.go); do
	case "$f" in
	./internal/wakeup/wakeup.go | \
		./internal/collnet/collnet.go | \
		./internal/mu/reliable.go | \
		./internal/wire/transport.go) ;;
	*)
		echo "lint_parks: $f introduces a raw sync.Cond park outside the allowlist: make it abortable (poison broadcast + sentinel park) or extend scripts/lint_parks.sh with a justification" >&2
		fail=1
		;;
	esac
done

# Allowlisted sync.Cond owners, counts pinned. Every cond here is woken
# by whoever cuts its waiter loose: wakeup.Region (Touch broadcasts it;
# the sentinel's hook touches after latching its cause, as
# Context.Abort and the node team's poison do), collnet retired-cond
# (Poison broadcasts it), mu flow cond (failFlow kicks it, stage parks
# on the sentinel), wire transport conds (reconnect/close paths
# broadcast).
check "sync.NewCond" internal/wakeup/wakeup.go 1
check "sync.NewCond" internal/collnet/collnet.go 1
check "sync.NewCond" internal/mu/reliable.go 1
check "sync.NewCond" internal/wire/transport.go 3

# Channel construction inside the abortable layers, counts pinned.
# The allowed ones are stop/done plumbing that is closed on shutdown,
# never awaited by the data path.
for f in $(grep -rl "make(chan " --include="*.go" \
	internal/core internal/collnet internal/l2atomic internal/wakeup \
	internal/recovery internal/mu 2>/dev/null | grep -v _test.go); do
	case "$f" in
	internal/recovery/supervisor.go | \
		internal/mu/reliable.go) ;;
	*)
		echo "lint_parks: $f introduces a raw channel wait in an abortable layer: gate it behind a poisonable primitive or extend scripts/lint_parks.sh with a justification" >&2
		fail=1
		;;
	esac
done
check "make(chan " internal/recovery/supervisor.go 2
check "make(chan " internal/mu/reliable.go 2

# Raw spins. A `runtime.Gosched()` poll is a wait the sentinel cannot see
# and the scheduler pays for (ROADMAP item 1(b)), so the runtime's spins
# are pinned too: per file, the count that remains and why. A new spin —
# or a spin in a file not listed — fails until it goes through an
# abortable park or is justified here. LINES are where the sites sit in
# the current tree (13 spins in all); an edit that moves one updates its
# row.
#
#   FILE                         N  LINES            WHY IT MAY POLL
spins="
internal/core/geometry.go        2  234,818          bootstrap rendezvous in CreateGeometry (bounded by context creation); swWait advances the context itself and yields only when nothing moved, its exit is the deadMember gate
internal/core/context.go         2  382,531          deferred-send drain, registered at core.deferred.send (the sentinel aborts it); Drain's quiet-but-not-quiescent yield
internal/mpilib/pt2pt.go         4  279,293,314,341  Waitall/Test/Testall/Probe drive progress themselves and yield only on an idle pass; converting them is ROADMAP item 1(b)'s spinwait helper
internal/mpilib/world.go         1  293              progress(): context lock held by a commthread, yield to it
internal/mu/mu.go                1  177              not a wait: RecFIFO.PollBatch yields once, then returns 0, when it drained nothing from a FIFO whose head ticket is claimed but unpublished, so the producer that lost the P can publish; the wait around it is the caller's (advanceUntil: visible, abortable)
internal/l2atomic/l2atomic.go    2  112,184          the L2 primitives' own backoff: Mutex.Lock (held for a few instructions) and Barrier.Await, which no runtime code constructs any more (checked below)
internal/scenario/online.go      1  326              the online policy's progress loop, yields after a productive pass (idle passes sleep)
"
listed=$(echo "$spins" | awk 'NF { print "./" $1 }')
for f in $(grep -rl "runtime\.Gosched()" --include="*.go" . | grep -v _test.go | grep -v "^./benchmark/" | grep -v "^./examples/"); do
	if ! echo "$listed" | grep -qx "$f"; then
		echo "lint_parks: $f introduces a runtime.Gosched() spin outside the allowlist: park on a wakeup.Region (or another abortable primitive) instead, or extend scripts/lint_parks.sh with a justification" >&2
		fail=1
	fi
done
while read -r f n _; do
	[ -z "$f" ] || check "runtime\.Gosched()" "$f" "$n"
done <<SPINS
$spins
SPINS
# The wire transport's data path wakes by cond signal and by socket
# readiness, never by polling: no Gosched anywhere in it (it is not in
# the table above), and exactly one time.Sleep — the reader's
# delivery-stall retry while the destination FIFO refuses the frame in
# hand, after it has settled the burst and woken the consumer. A writer
# that slept to accumulate a bigger flush would be the second.
check "time\.Sleep" internal/wire/transport.go 1

# The node-team protocol replaced the l2atomic.Barrier crossings (three
# spins per crossing, four crossings per collective): the primitive stays
# for the benchmark's ladder, but nothing in the runtime may wait on it.
if grep -rn "l2atomic\.NewBarrier" --include="*.go" . | grep -v _test.go | grep -v "^./benchmark/" >&2; then
	echo "lint_parks: the runtime constructs an l2atomic.Barrier again: its Await is a Gosched spin; use the node-team round (internal/core) or a wakeup.Region" >&2
	fail=1
fi

# One cancellation path. internal/abort is a vocabulary (kinds, causes,
# ErrAborted), not a mechanism: a latch of its own with subscribers
# would be a second way to cut a wait loose, beside the sentinel's park
# hook, so its non-test Go imports no sync. And the wakeup unit waits
# only for a touch: whoever aborts a region waiter latches its cause
# elsewhere and touches the region, so non-test internal/wakeup imports
# no internal/abort.
if grep -n '"sync' internal/abort/*.go | grep -v "_test\.go:" >&2; then
	echo "lint_parks: internal/abort imports sync: it holds the cancellation vocabulary, not a latch; cut a wait loose through the sentinel's park hook (watchdog.Site.Attach)" >&2
	fail=1
fi
if grep -n '"pamigo/internal/abort"' internal/wakeup/*.go | grep -v "_test\.go:" >&2; then
	echo "lint_parks: internal/wakeup imports internal/abort: a region wait ends on a touch; latch the cause in the waiter's own primitive and touch the region" >&2
	fail=1
fi

# Fabric-wide shared state on the message path: no package-level sync or
# atomic variable (top-level `var x` or a line inside a top-level
# `var (...)` block), and one pinned sync.RWMutex.
shared="internal/core internal/mu internal/cnk internal/shmem internal/mpilib"
for f in $(find $shared -name '*.go' -not -name '*_test.go'); do
	if awk '/^var \(/ { blk = 1; next } blk && /^\)/ { blk = 0; next }
		(blk || /^var /) && /(sync|atomic)\./ { print FILENAME ":" FNR ": " $0; bad = 1 }
		END { exit !bad }' "$f" >&2; then
		echo "lint_parks: $f has a package-level sync/atomic variable: every machine in the process shares it; hang it off the machine, task or context instead" >&2
		fail=1
	fi
done
for f in $(grep -rl "sync\.RWMutex" $shared --include="*.go" | grep -v _test.go); do
	if [ "$f" != internal/shmem/shmem.go ]; then
		echo "lint_parks: $f introduces a sync.RWMutex on the message path: use a per-owner table read without a lock (see mu/memregion.go)" >&2
		fail=1
	fi
done
check "sync\.RWMutex" internal/shmem/shmem.go 1

# One membership record: no node set keyed by rank outside health.
if grep -rn "map\[torus\.Rank\]bool" --include="*.go" internal | grep -v "_test\.go:" |
	grep -v "^internal/health/" | grep -v "^internal/netsim/" >&2; then
	echo "lint_parks: a map[torus.Rank]bool outside internal/health: who is dead is the health monitor's to say (health.Monitor.Dead); ask it instead of keeping a copy" >&2
	fail=1
fi

# One judge of death: failFlow( is called from exactly three functions.
callers=$(for f in $(find internal/mu -name '*.go' -not -name '*_test.go'); do
	awk '/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn); next }
		/failFlow\(/ && !/^[[:space:]]*\/\// { print fn }' "$f"
done | LC_ALL=C sort | tr '\n' ' ')
if [ "$callers" != "MarkNodeDead ReviveNode awaitWindowLocked " ]; then
	echo "lint_parks: internal/mu calls failFlow( from: ${callers:-nowhere}; want exactly MarkNodeDead, ReviveNode and awaitWindowLocked, once each: a flow fails on the health monitor's word, a revival or the stall sentinel, never on a sender-side clock" >&2
	fail=1
fi

[ "$fail" -eq 0 ] && echo "lint_parks: every park site is abortable or allowlisted, every spin is pinned"
exit "$fail"
