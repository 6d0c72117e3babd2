#!/bin/sh
# Repository verification recipe: everything CI (and a pre-commit run)
# should hold green. The race pass covers the packages with dedicated
# concurrency stress tests plus the layers they exercise.
set -eu
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l (outside benchmark/, which keeps its own layout)"
unformatted=$(find . -name '*.go' -not -path './benchmark/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> abortable-wait lint (no raw parks outside the abortable primitives, no new Gosched spins)"
sh scripts/lint_parks.sh

echo "==> go test ./..."
go test ./...

echo "==> go test -count=20 -run TestPAMIFasterThanMPI ./internal/mpilib (MPI point-to-point now costs PAMI plus matching: the paired comparison's margin is about 250 ns, so one pass says little)"
go test -count=20 -run TestPAMIFasterThanMPI ./internal/mpilib

echo "==> go test -race (telemetry + integration + hot layers; bufpool and lockless carry the concurrent-count and queue stress tests; mu includes the reliable link's property test: 32 seeds x 5 fault plans x 1 and 4 origins, exactly once, in order and byte-exact; core the node-team property test: 4 team shapes x 3 seeds x every root, size class and combine op; armci and upc are the concurrent users of caller-chosen memregion IDs; shmem the many-producer queue of the shared-memory device; l2atomic, wakeup and abort the primitives a wait sleeps on and the causes that cut it loose)"
# Two invocations: the chaos and recovery suites in integration are
# sensitive to load, and core's property test is a second of it.
go test -race ./internal/telemetry ./internal/bufpool ./internal/lockless ./internal/integration ./internal/mpilib ./internal/mu ./internal/armci ./internal/upc ./internal/shmem
go test -race ./internal/core ./internal/collnet ./internal/watchdog ./internal/l2atomic ./internal/wakeup ./internal/abort

echo "==> GOMAXPROCS=1 go test -race (node-team protocol and the software collectives' stall abort: no wait may depend on a second core; the progress loop parks without a dry pass, one Advance per ping-pong hop under AdvanceUntil and under commthreads, and loses no publish: the property test runs -count=20; a commthread sends what it deferred once the destination drains, -count=20; a deferred send stalled under other traffic still escalates)"
GOMAXPROCS=1 go test -race -run 'TestTeam|TestRootedReduceCannotLap|TestParked|TestJoinAfterDeath|TestStranded|TestSoftwareCollectiveStallAborts|TestAdvanceUntilOneAdvancePerHop|TestAdvanceUntilNoLostPublish|TestCommThreadOneAdvancePerHop|TestDeferredStallAbortsUnderTraffic' ./internal/core
GOMAXPROCS=1 go test -race -count=20 -run 'TestAdvanceUntilNoLostPublish|TestCommThreadSendsDeferred' ./internal/core

echo "==> GOMAXPROCS=1 go test -race ./internal/mpilib (an MPI wait no peer satisfies is cut loose by the stall sentinel on one core, with and without commthreads; one that keeps moving is not)"
GOMAXPROCS=1 go test -race -run 'TestWaitStallAborts|TestSlowProgressNotAborted|TestWaitallPanicsOnAbortedWorld|TestSendCancelledByDeath' ./internal/mpilib

echo "==> GOMAXPROCS=1 go test -race ./internal/mu (a full reception FIFO refuses and the link holds its sender in a backoff wait: it crosses once the consumer drains, the stall sentinel cuts it loose when none does, and a consumer asleep on its region is woken before the link waits on it, on one core)"
GOMAXPROCS=1 go test -race -run 'TestLiveSilentPeerKeepsFlow|TestSentinelEscalatesWindowStall|TestLinkWakesSleepingConsumer' ./internal/mu

echo "==> go test -race (wire transport: burst property + chunking + reconnect and fault storms, cross-process machines, liveness; the failure scenarios pamirun runs, in one process)"
go test -race ./internal/wire ./internal/machine ./internal/health ./cmd/pamirun ./internal/scenario

echo "==> GOMAXPROCS=1 go test -race ./internal/wire (a reader/writer pair must not need a second core to make progress)"
GOMAXPROCS=1 go test -race ./internal/wire

echo "==> go test -tags bufpooldebug (buffer ownership: double-release, use-after-release, a kept view of an inline message reads poison; the shared-memory leg holds a slab only past the inline cut; the live count folds the quarantine out, under -race; the reliable link's chunk references, all taken before chunk 0 crosses to a concurrent consumer, under -race)"
go test -tags bufpooldebug ./internal/bufpool ./internal/mu ./internal/shmem ./internal/core ./internal/mpilib
go test -race -tags bufpooldebug ./internal/bufpool ./internal/mu ./internal/shmem

echo "==> benchmark module (outside ./...: vet + 1/100-length smoke run)"
(cd benchmark && go vet ./... && go test)

echo "==> chaos smoke (fault injection, fixed seed, small torus, -race)"
go test -race -run TestChaos ./internal/integration
go run ./cmd/pamirun -dims 2x2x1x1x1 -ppn 2 -deadline 120s \
	-faults "drop=0.05,corrupt=0.02,dup=0.01" -fault-seed 7 >/dev/null

echo "==> loaded recovery lane (-race on the recovery suites while a second go test loads the box: a restored task resumes in its own goroutine, so no scheduling may put two advancers on one context)"
# loaded CMD...: run CMD while a second go test loads the box. The load's
# own verdict is not this lane's.
loaded() {
	go test -count=1 ./internal/wire ./internal/core ./internal/mu >/dev/null 2>&1 &
	load=$!
	st=0
	"$@" || st=$?
	wait "$load" || true
	return "$st"
}
loaded go test -race -count=10 -run TestRecovery ./internal/integration
loaded go test -race -count=5 ./internal/scenario

echo "==> crash-recovery smoke (node death, checkpoint-restart, fixed seed)"
go run ./cmd/pamirun -dims 2x2x2x1x1 -ppn 1 -deadline 120s \
	-faults "crash@pkt=5000,node=3" -fault-seed 7 >/dev/null

echo "==> overload smoke (many-to-one flood, bounded queue HWM, no goroutine leaks, -race)"
go test -race -run TestOverloadFlood ./internal/integration

echo "==> multi-process wire smoke (2 OS processes, fault storm, SIGKILL survival)"
sh scripts/wire_smoke.sh

echo "==> recovery soak (5 kills: 3 in-process + 2 wire SIGKILLs, online self-heal)"
sh scripts/recovery_soak.sh

# Deeper static analysis, gated on the tools being present: the build
# environment is hermetic (no network installs), so absence is a notice,
# never a failure. Install locally with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest
if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck ./..."
	staticcheck ./...
else
	echo "==> staticcheck not installed; skipping (notice, not a failure)"
fi
if command -v govulncheck >/dev/null 2>&1; then
	echo "==> govulncheck ./..."
	govulncheck ./...
else
	echo "==> govulncheck not installed; skipping (notice, not a failure)"
fi

echo "==> fault-grammar fuzz (short deterministic run)"
go test -run xxx -fuzz FuzzParsePlan -fuzztime 10s ./internal/fault >/dev/null

echo "==> wire frame fuzz (decoder must never panic on hostile bytes; the stream reader delivers only what it accepts, however the stream is cut)"
go test -run xxx -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire >/dev/null
go test -run xxx -fuzz FuzzStreamReader -fuzztime 10s ./internal/wire >/dev/null

echo "all checks passed"
