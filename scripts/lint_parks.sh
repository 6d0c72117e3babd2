#!/bin/sh
# Abortable-wait lint (grep-based): every blocking park in the runtime
# must be reachable by the one cancellation path — a sentinel-registered
# watchdog.Park whose hook cuts the waiter loose by latching a cause in
# the primitive it sleeps on (a reliable flow's cause, ClassRoute.Poison,
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
# And it keeps one advancer per context across a crash: recovery starts
# no goroutine for a restored task and polls for no replica (below).
#
# And it keeps one membership record. The health monitor alone says
# which nodes are dead; the fabric and the collective network ask it. A
# map[torus.Rank]bool in the non-test Go of internal/ is how a second
# dead-node set would come back, so it fails everywhere but in
# internal/health and internal/netsim (the BFS seen set of its route
# search).
#
# And it keeps one judge of death in the reliable layer. A send fails
# as dead only on the health monitor's word, which a waiting sender
# reads at every wait; the one failure a flow records is the stall
# sentinel's cause. So the non-test Go of internal/mu writes a flow's
# cause (cause.Store or cause.CompareAndSwap) in exactly one place, the
# escalation hook enterWait attaches. A second writer is a sender-side
# clock deciding that a silent peer is dead, which is the monitor's to
# say: it fails here.
#
# And it keeps one backpressure on the reliable leg. A full reception
# FIFO refuses, and the link holds its sender in a backoff wait at the
# one sentinel site the fabric registers, mu.link.stall; the only sleep
# in the non-test Go of internal/mu is hold, the one helper the pace,
# a delay fault and the wait's backoff go through. A second gate on the
# same condition would come back as a second site or a second sleep.
#
# And it keeps one record of a drained context: the non-test Go of
# internal/core assigns Context.drainedGen only inside advance, the one
# place a pass proves the sources drained (the progress loop sleeps on
# it).
#
# And it keeps one progress loop per context. The owner's AdvanceUntil,
# the commthread and the software collectives' fragment wait all run
# (*Context).advanceUntil: the non-test Go of internal/core sleeps on a
# wakeup region only there and in the classroute's Geometry.await (which
# advances nothing), commthreads start only in Client.EnableCommThreads,
# cnk waits on a region once (a suspended commthread waiting out its
# suspension), and only send.go enters the deferred queue's park.
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
# (Poison broadcasts it), wire transport conds (reconnect/close paths
# broadcast).
check "sync.NewCond" internal/wakeup/wakeup.go 1
check "sync.NewCond" internal/collnet/collnet.go 1
check "sync.NewCond" internal/wire/transport.go 3

# Channel construction inside the abortable layers, counts pinned.
# The allowed ones are stop/done plumbing that is closed on shutdown,
# never awaited by the data path.
for f in $(grep -rl "make(chan " --include="*.go" \
	internal/core internal/collnet internal/l2atomic internal/wakeup \
	internal/recovery internal/mu 2>/dev/null | grep -v _test.go); do
	case "$f" in
	internal/recovery/supervisor.go) ;;
	*)
		echo "lint_parks: $f introduces a raw channel wait in an abortable layer: gate it behind a poisonable primitive or extend scripts/lint_parks.sh with a justification" >&2
		fail=1
		;;
	esac
done
# supervisor.go: the worker's death queue and stop channel, and the
# restore broadcast AwaitRestore sleeps on (closed at every publish,
# its timeout owned by the waiter, its site recovery.await.restore).
check "make(chan " internal/recovery/supervisor.go 3

# Recovery starts nothing for a restored task: the task's own goroutine
# takes its restore from AwaitRestore, which sleeps on the publish
# broadcast rather than polling. So the non-test Go of internal/recovery
# has no time.Sleep and one go statement, the recovery worker's.
got=$(find internal/recovery -name '*.go' -not -name '*_test.go' -exec cat {} + | grep -v '^\s*//' | grep -c "time\.Sleep(" || true)
if [ "$got" -ne 0 ]; then
	echo "lint_parks: internal/recovery sleeps $got time(s): a restore wait sleeps on the publish broadcast, not a poll" >&2
	fail=1
fi
gos=$(find internal/recovery -name '*.go' -not -name '*_test.go' -exec grep -h '^[[:space:]]*go ' {} + |
	sed 's/^[[:space:]]*//' | tr '\n' ' ')
if [ "$gos" != 'go s.worker() ' ]; then
	echo "lint_parks: internal/recovery starts goroutines: ${gos:-none}; want exactly the recovery worker: a restored task resumes in its own goroutine, so its context keeps one advancer" >&2
	fail=1
fi

# Raw spins. A `runtime.Gosched()` poll is a wait the sentinel cannot see
# and the scheduler pays for (ROADMAP item 1(b)), so the runtime's spins
# are pinned too: per file, the count that remains and why. A new spin —
# or a spin in a file not listed — fails until it goes through an
# abortable park or is justified here. LINES are where the sites sit in
# the current tree (6 spins in all); an edit that moves one updates its
# row.
#
#   FILE                         N  LINES            WHY IT MAY POLL
spins="
internal/core/geometry.go        1  235              bootstrap rendezvous in CreateGeometry, bounded by context creation; a classroute wait parks in Geometry.await, a software one in the progress loop
internal/core/context.go         1  450              the progress loop (advanceUntil: AdvanceUntil, Drain, the commthread, the software collectives' fragment wait) yields after a pass that moved nothing while a deferred send is queued; the queue is registered at core.deferred.send from its first send until it empties (the sentinel aborts it)
internal/mpilib/pt2pt.go         1  289              World.wait, the one wait of every MPI request: it drives progress and yields only on an idle pass, and a wait that stays idle registers at mpilib.wait (the sentinel aborts it)
internal/l2atomic/l2atomic.go    2  112,184          the L2 primitives' own backoff: Mutex.Lock (held for a few instructions) and Barrier.Await, which no runtime code constructs any more (checked below)
internal/scenario/online.go      1  330              the online policy's progress loop, yields after a productive pass (idle passes sleep)
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
# One wait for core: the non-test functions of internal/core that call
# runtime.Gosched() are exactly advanceUntil (the deferred-send poll) and
# CreateGeometry (the bootstrap rendezvous). A collective, a drain or any
# other wait that spins instead of parking in Geometry.await or
# advanceUntil fails here.
callers=$(for f in $(find internal/core -name '*.go' -not -name '*_test.go'); do
	awk '/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn); next }
		/runtime\.Gosched\(\)/ && !/^[[:space:]]*\/\// { print fn }' "$f"
done | LC_ALL=C sort -u | tr '\n' ' ')
if [ "$callers" != "CreateGeometry advanceUntil " ]; then
	echo "lint_parks: internal/core calls runtime.Gosched() from: ${callers:-nowhere}; want exactly advanceUntil and CreateGeometry: a wait parks in Geometry.await or advanceUntil, where the sentinel sees it" >&2
	fail=1
fi
# One progress loop per context. The non-test functions of internal/core
# that call a region's Wait are exactly advanceUntil, which
# advances the context between sleeps, and Geometry.await, which waits
# for node-mates and advances nothing. A loop of its own that advances a
# context and sleeps — the commthread's used to — fails here.
callers=$(for f in $(find internal/core -name '*.go' -not -name '*_test.go'); do
	awk '/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn); next }
		/\.Wait\(/ && !/^[[:space:]]*\/\// { print fn }' "$f"
done | LC_ALL=C sort | tr '\n' ' ')
if [ "$callers" != "advanceUntil await " ]; then
	echo "lint_parks: internal/core waits on a region from: ${callers:-nowhere}; want exactly advanceUntil and await, once each: a context has one progress loop" >&2
	fail=1
fi
# The commthread runs core's loop: only Client.EnableCommThreads starts
# one, and cnk waits on a region once, in the commthread's lifecycle
# loop, where a suspended thread waits out its suspension.
if grep -rn "StartCommThread(" --include="*.go" . | grep -v "_test\.go:" | grep -v "func (n \*Node) StartCommThread(" |
	grep -v "^\./internal/core/client\.go:" >&2; then
	echo "lint_parks: a commthread started outside internal/core/client.go: a commthread runs the context's progress loop (Client.EnableCommThreads)" >&2
	fail=1
fi
got=$(find internal/cnk -name '*.go' -not -name '*_test.go' -exec cat {} + | grep -v '^\s*//' | grep -c "\.Wait(" || true)
if [ "$got" -ne 1 ]; then
	echo "lint_parks: internal/cnk waits on a region $got times; want once, the wait that sees a suspended commthread through: progress, and the sleep between passes, are core's" >&2
	fail=1
fi
# The deferred queue owns its park: only send.go (deferSend, and
# deferredLeft when a send leaves the queue) enters it, so its age is how
# long the queue has not moved, not how long some loop has waited.
for f in $(grep -rl "deferredPark\.Enter(" --include="*.go" internal | grep -v _test.go); do
	if [ "$f" != internal/core/send.go ]; then
		echo "lint_parks: $f enters the deferred-send park: the queue's own bookkeeping in send.go does that" >&2
		fail=1
	fi
done
check "deferredPark\.Enter(" internal/core/send.go 2
# One record of a drained context. The progress loop sleeps without a
# pass when the region's generation equals drainedGen, so the field may
# be assigned only where a pass proved the sources drained at that
# generation: in the non-test Go of internal/core, inside
# (*Context).advance, the pass of Advance and of the loop, and nowhere
# else. A second writer could put a waiter to sleep on a generation
# nobody drained.
callers=$(for f in $(find internal/core -name '*.go' -not -name '*_test.go'); do
	awk '/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn); next }
		/drainedGen[[:space:]]*(=[^=]|\+\+|--|[-+|&^]=)/ && !/^[[:space:]]*\/\// { print fn }' "$f"
done | LC_ALL=C sort | tr '\n' ' ')
if [ "$callers" != "advance " ]; then
	echo "lint_parks: internal/core assigns drainedGen from: ${callers:-nowhere}; want exactly Context.advance, once: only a pass that found the sources drained may record it" >&2
	fail=1
fi

# One wait for mpilib: its only non-test caller of runtime.Gosched() is
# World.wait. A Waitall, Test, Probe or progress loop that spins on its
# own is a wait the sentinel cannot see.
callers=$(for f in $(find internal/mpilib -name '*.go' -not -name '*_test.go'); do
	awk '/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn); next }
		/runtime\.Gosched\(\)/ && !/^[[:space:]]*\/\// { print fn }' "$f"
done | LC_ALL=C sort | tr '\n' ' ')
if [ "$callers" != "wait " ]; then
	echo "lint_parks: internal/mpilib calls runtime.Gosched() from: ${callers:-nowhere}; want exactly World.wait, once: every MPI wait goes through it, where the sentinel sees it" >&2
	fail=1
fi

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

# One judge of death: a flow's cause is written once, in the sentinel
# hook enterWait attaches.
callers=$(for f in $(find internal/mu -name '*.go' -not -name '*_test.go'); do
	awk '/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn); next }
		/cause\.(Store|CompareAndSwap|Swap)\(/ && !/^[[:space:]]*\/\// { print fn }' "$f"
done | LC_ALL=C sort | tr '\n' ' ')
if [ "$callers" != "enterWait " ]; then
	echo "lint_parks: internal/mu writes a flow's cause in: ${callers:-nowhere}; want exactly once, in the stall-sentinel hook enterWait attaches: a send fails as dead on the health monitor's word, never on a sender-side clock" >&2
	fail=1
fi

# One backpressure on the reliable leg: one sleep, one sentinel site.
callers=$(for f in $(find internal/mu -name '*.go' -not -name '*_test.go'); do
	awk '/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn); next }
		/time\.Sleep\(/ && !/^[[:space:]]*\/\// { print FILENAME ":" fn }' "$f"
done | LC_ALL=C sort | tr '\n' ' ')
if [ "$callers" != "internal/mu/reliable.go:hold " ]; then
	echo "lint_parks: internal/mu sleeps in: ${callers:-nowhere}; want exactly hold in reliable.go, the one helper the pace, a delay and the link's backoff go through: a full FIFO refuses and the link's wait holds the sender" >&2
	fail=1
fi
sites=$(find internal/mu -name '*.go' -not -name '*_test.go' -exec grep -h '\.Site(' {} + | grep -v '^[[:space:]]*//' |
	sed 's/^[[:space:]]*//' | tr '\n' ' ')
if [ "$sites" != 'f.stallSite.Store(s.Site("mu.link.stall")) ' ]; then
	echo "lint_parks: internal/mu registers sentinel sites: ${sites:-none}; want exactly mu.link.stall, where the link holds a sender" >&2
	fail=1
fi

[ "$fail" -eq 0 ] && echo "lint_parks: every park site is abortable or allowlisted, every spin is pinned"
exit "$fail"
