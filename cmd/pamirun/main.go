// Command pamirun boots a functional machine, runs a short communication
// shakedown on it — point-to-point ping-pong, the four collectives, a
// rectangle broadcast — and prints the fabric statistics, so you can see
// the simulated BG/Q moving real packets.
//
// Usage:
//
//	pamirun -dims 2x2x2x1x1 -ppn 2
//	pamirun -dims 2x2x1x1x1 -faults "drop=0.05,corrupt=0.02,dup=0.01" -fault-seed 7 -deadline 30s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"pamigo/internal/cnk"
	"pamigo/internal/collnet"
	"pamigo/internal/fault"
	"pamigo/internal/machine"
	"pamigo/internal/scenario"
	"pamigo/internal/torus"
	"pamigo/internal/watchdog"
	"pamigo/mpi"
	"pamigo/pami"
)

func parseDims(s string) (torus.Dims, error) {
	parts := strings.Split(s, "x")
	var d torus.Dims
	if len(parts) != torus.NumDims {
		return d, fmt.Errorf("want 5 dimensions AxBxCxDxE, got %q", s)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return d, err
		}
		d[i] = v
	}
	return d, d.Validate()
}

func main() {
	dimsFlag := flag.String("dims", "2x2x2x1x1", "torus shape AxBxCxDxE")
	ppn := flag.Int("ppn", 2, "processes per node")
	verbose := flag.Bool("v", false, "print per-rank progress")
	stats := flag.Bool("stats", false, "print the machine's telemetry totals after the shakedown (in wire mode, also every peer link's state and last disconnect cause)")
	faults := flag.String("faults", "", `fault plan, e.g. "drop=0.05,corrupt=0.02,dup=0.01,linkdown=0:A+@500" (empty = off)`)
	faultSeed := flag.Int64("fault-seed", 1, "seed for deterministic fault decisions")
	deadline := flag.Duration("deadline", 0, "abort with a goroutine dump if the run exceeds this duration (0 = off)")
	hangDump := flag.Bool("hang-dump", false, "install a SIGQUIT handler that prints the stall-sentinel wait-site table plus a goroutine dump and keeps running")
	stallDeadline := flag.Duration("stall-deadline", 0, "arm the partition stall sentinel: any escalatable wait parked longer than this is aborted with a typed cause (0 = observe only)")
	listen := flag.String("listen", "", "wire listen address (host:port or unix:/path) so other processes of the partition can join")
	join := flag.String("join", "", "comma-separated wire addresses of already-started partition processes to join")
	rankRange := flag.String("rank-range", "", `task range "lo:hi" this process hosts (half-open, bounds multiples of -ppn); default: all`)
	partitionID := flag.Uint64("partition", 1, "partition ID every process of the job must share")
	dieRound := flag.Int("die-round", -1, "SIGKILL this process when it reaches the given wire-shakedown round (chaos testing; -1 = never)")
	wiredemo := flag.Bool("wiredemo", false, "run the wire shakedown workload even single-process (reference digests for byte-exact comparison)")
	recoverMode := flag.String("recover", "", `"auto" turns on self-healing: buddy-replicated in-memory checkpoints with automatic online recovery`)
	buddyInterval := flag.Int("buddy-interval", 4, "rounds between buddy checkpoints in the -recover=auto demo")
	spares := flag.Int("spares", 4, "respawn budget: how many times -respawn relaunches a killed worker")
	respawn := flag.Bool("respawn", false, "run as the respawn supervisor: launch this command as a worker and relaunch it with a bumped incarnation when a signal kills it")
	incarnation := flag.Uint("incarnation", 0, "worker incarnation tag, bumped by the respawn supervisor on every relaunch (internal)")
	flag.Parse()

	stop := watchdog.Start(*deadline, "pamirun shakedown")
	defer stop()
	if *hangDump {
		watchdog.InstallHangDump("pamirun")
	}

	dims, err := parseDims(*dimsFlag)
	if err != nil {
		log.Fatalf("pamirun: -dims %q: %v (want AxBxCxDxE with every extent >= 1, e.g. 2x2x2x1x1)", *dimsFlag, err)
	}
	if !cnk.ValidPPN(*ppn) {
		log.Fatalf("pamirun: -ppn %d is not a valid BG/Q process count: use a power of two between 1 and 64", *ppn)
	}
	cfg := machine.Config{Dims: dims, PPN: *ppn, TrackHops: true, FaultSeed: *faultSeed, StallDeadline: *stallDeadline}
	if *faults != "" {
		fp, err := fault.ParsePlan(*faults)
		if err != nil {
			log.Fatalf("pamirun: %v", err)
		}
		if err := fp.Validate(dims); err != nil {
			log.Fatalf("pamirun: %v", err)
		}
		cfg.Faults = &fp
	}
	if *recoverMode != "" && *recoverMode != "auto" {
		log.Fatalf(`pamirun: -recover %q: the only supported mode is "auto"`, *recoverMode)
	}
	if *recoverMode != "" && *respawn {
		// Parent: supervise a worker child, relaunching on kills.
		if err := runRespawnSupervisor(*spares); err != nil {
			log.Fatalf("pamirun: respawn supervisor: %v", err)
		}
		return
	}

	// Everything but the MPI shakedown is a failure scenario of
	// internal/scenario; the flags pick the workload and the recovery policy.
	plan := scenario.Plan{
		Machine: cfg, Workload: scenario.Exchange, Policy: scenario.Restart,
		BuddyInterval: *buddyInterval, Verbose: *verbose, Out: os.Stdout,
	}
	what := "wire shakedown"
	switch {
	case *recoverMode != "" || *listen != "" || *join != "" || *rankRange != "" || *wiredemo || *dieRound >= 0:
		if plan.Span, err = validateWireFlags(dims, *ppn, *listen, *join, *rankRange, *partitionID, *dieRound); err != nil {
			log.Fatalf("pamirun: %v", err)
		}
		plan.Span.Incarnation = uint32(*incarnation)
		if *recoverMode != "" {
			plan.Policy, what = scenario.Online, "self-heal"
		}
	case cfg.Faults != nil && cfg.Faults.HasNodeFaults():
		// Node faults run the crash-recovery scenario instead of the MPI
		// shakedown: the MPI layer is deliberately not fault-aware, the
		// core layer is (see README, "Failure model").
		fmt.Printf("node-fault plan armed: %s (seed %d) — running crash-recovery demo\n", cfg.Faults, *faultSeed)
		plan.Workload, plan.Span.DieRound, what = scenario.Allreduce, -1, "crash recovery"
	default:
		shakedown(cfg, *verbose, *stats)
		return
	}
	rep, err := scenario.Run(plan)
	for _, line := range rep.Lines {
		fmt.Println(line)
	}
	if *stats {
		for _, m := range rep.Machines {
			printStats(m)
		}
	}
	if err != nil {
		log.Fatalf("pamirun: %s: %v", what, err)
	}
}

// shakedown is the default run: point-to-point, the collectives and a
// rectangle broadcast through the MPI layer, then the fabric statistics.
func shakedown(cfg machine.Config, verbose, stats bool) {
	dims, ppn := cfg.Dims, cfg.PPN
	m, err := pami.NewMachine(cfg)
	if err != nil {
		log.Fatalf("pamirun: %v", err)
	}
	fmt.Printf("booted %s torus, %d nodes, %d processes (PPN=%d)\n",
		dims, m.Nodes(), m.Tasks(), ppn)
	if cfg.Faults != nil {
		fmt.Printf("fault injection armed: %s (seed %d)\n", cfg.Faults, cfg.FaultSeed)
	}

	start := time.Now()
	m.Run(func(p *pami.Process) {
		w, err := mpi.Init(m, p, mpi.Options{})
		if err != nil {
			log.Fatalf("rank %d: %v", p.TaskRank(), err)
		}
		defer w.Finalize()
		cw := w.CommWorld()

		// Ping-pong around a ring.
		next := (w.Rank() + 1) % w.Size()
		prev := (w.Rank() - 1 + w.Size()) % w.Size()
		out := []byte(fmt.Sprintf("hop from %d", w.Rank()))
		in := make([]byte, 32)
		if _, err := cw.SendRecv(out, next, 1, in[:len(out)], prev, 1); err != nil {
			log.Fatalf("rank %d sendrecv: %v", w.Rank(), err)
		}
		if verbose {
			fmt.Printf("rank %2d received %q\n", w.Rank(), strings.TrimRight(string(in), "\x00"))
		}
		cw.Barrier()

		// Allreduce a double sum on the collective network.
		sum, err := cw.AllreduceFloat64([]float64{float64(w.Rank())}, collnet.OpAdd)
		if err != nil {
			log.Fatalf("rank %d allreduce: %v", w.Rank(), err)
		}
		want := float64(w.Size()*(w.Size()-1)) / 2
		if sum[0] != want {
			log.Fatalf("rank %d: allreduce sum %v, want %v", w.Rank(), sum[0], want)
		}

		// Broadcast 64KB from rank 0 over the classroute.
		buf := make([]byte, 64<<10)
		if w.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		if err := cw.Bcast(buf, 0); err != nil {
			log.Fatalf("rank %d bcast: %v", w.Rank(), err)
		}

		// Rectangle broadcast at one process per node.
		if ppn == 1 {
			if err := cw.RectBcast(buf, 0); err != nil {
				log.Fatalf("rank %d rectbcast: %v", w.Rank(), err)
			}
		}
		cw.Barrier()
	})
	elapsed := time.Since(start)

	s := m.Fabric().Snapshot()
	fmt.Printf("shakedown passed in %v\n", elapsed)
	fmt.Printf("torus traffic: %d packets, %d bytes, %d hops (%.2f hops/packet)\n",
		s.Packets, s.Bytes, s.Hops, float64(s.Hops)/float64(max(s.Packets, 1)))
	fmt.Printf("operations: %d memory-FIFO sends, %d RDMA puts, %d remote gets\n",
		s.MemFIFOSends, s.Puts, s.RemoteGets)
	if cfg.Faults != nil {
		snap := m.Telemetry().Snapshot()
		get := func(name string) int64 {
			v, _ := snap.Counter("mu.reliable." + name)
			return v
		}
		downs, _ := snap.Counter("collnet.links_down")
		rebuilds, _ := snap.Counter("collnet.classroute_rebuilds")
		fmt.Printf("reliability: %d retransmits, %d corrupt drops, %d dup drops, %d link stalls, %d fifo refusals\n",
			get("retransmits"), get("corrupt_drops"), get("dup_drops"), get("link_stalls"), get("fifo_refusals"))
		fmt.Printf("faults: %d drops, %d delays, %d stall drops; %d links down, %d classroute rebuilds, %d reroutes\n",
			get("drops_injected"), get("delays_injected"), get("stall_drops"),
			downs, rebuilds, get("reroutes"))
	}
	m.Shutdown()
	if stats {
		printStats(m)
	}
}
