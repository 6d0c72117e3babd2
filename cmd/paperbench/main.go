// Command paperbench regenerates every table and figure of the paper's
// evaluation (Kumar et al., "PAMI: A Parallel Active Message Interface
// for the Blue Gene/Q Supercomputer", IPDPS 2012) from the calibrated
// performance model, printing the same rows and series the paper reports
// alongside the paper's quoted values.
//
// Usage:
//
//	paperbench -exp all
//	paperbench -exp table3
//	paperbench -exp fig8
//
// The model runs at full scale (2048 nodes); wall-clock measurements of
// the functional Go runtime come from the benchmark module
// (`go run -C benchmark pamigo/benchmark`), telemetry totals from
// `pamirun -stats`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pamigo/internal/model"
	"pamigo/internal/netsim"
	"pamigo/internal/profiles"
	"pamigo/internal/torus"
	"pamigo/internal/watchdog"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|table3|fig5|fig6|fig7|fig8|fig9|fig10|all")
	verify := flag.Bool("verify", false, "cross-check the closed-form model against the packet-level DES (table3)")
	deadline := flag.Duration("deadline", 0, "abort with a goroutine dump if the run exceeds this duration (0 = off)")
	hangDump := flag.Bool("hang-dump", false, "install a SIGQUIT handler that prints the stall-sentinel wait-site table plus a goroutine dump and keeps running")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stop := watchdog.Start(*deadline, "paperbench")
	defer stop()
	if *hangDump {
		watchdog.InstallHangDump("paperbench")
	}

	stopProfiles, err := profiles.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatalf("paperbench: %v", err)
	}
	defer stopProfiles()

	if *verify {
		verifyAgainstDES()
		return
	}

	p := model.Default()
	experiments := map[string]func(){
		"table1": func() {
			fmt.Print(model.RenderTable(model.Table1(p)))
			fmt.Println("paper: SendImmediate 1.18us, Send 1.32us")
		},
		"table2": func() {
			fmt.Print(model.RenderTable(model.Table2(p)))
			fmt.Println("paper: 1.95 / 2.28->8.7 / 2.5 / 2.96->3.25 us")
		},
		"table3": func() {
			fmt.Print(model.RenderTable(model.Table3(p)))
			fmt.Println("paper: eager 3267/3360/6676/8467, rendezvous 3333/6625/13139/32355 MB/s")
		},
		"fig5": func() {
			fmt.Print(model.RenderSeries("FIGURE 5. PAMI and MPI message rate (MMPS) on 32 nodes", model.Fig5(p)))
			fmt.Println("paper: PAMI 107 MMPS @PPN=32; MPI 22.9 MMPS @PPN=32; commthreads 2.4x @PPN=1, best 18.7 MMPS @PPN=16")
		},
		"fig6": func() {
			fmt.Print(model.RenderSeries("FIGURE 6. MPI_Barrier latency (us)", model.Fig6(p)))
			fmt.Println("paper @2048 nodes: 2.7us (PPN=1), 4.0us (PPN=4), 4.2us (PPN=16)")
		},
		"fig7": func() {
			fmt.Print(model.RenderSeries("FIGURE 7. MPI_Allreduce (MPI_DOUBLE, MPI_SUM, 1 element) latency (us)", model.Fig7(p)))
			fmt.Println("paper @2048 nodes: 5.5us (PPN=1), 5.0us (PPN=4), 5.3us (PPN=16)")
		},
		"fig8": func() {
			fmt.Print(model.RenderSeries("FIGURE 8. Allreduce throughput on 2048 nodes (MB/s)", model.Fig8(p)))
			fmt.Println("paper peaks: 1704 MB/s @8MB (PPN=1), 1693 @2MB (PPN=4), 1643 @512KB (PPN=16)")
		},
		"fig9": func() {
			fmt.Print(model.RenderSeries("FIGURE 9. Broadcast throughput via collective network on 2048 nodes (MB/s)", model.Fig9(p)))
			fmt.Println("paper peaks: 1728 MB/s @32MB (PPN=1), 1722 @4MB (PPN=4), 1701 @1MB (PPN=16)")
		},
		"fig10": func() {
			fmt.Print(model.RenderSeries("FIGURE 10. Multi-color rectangle broadcast throughput on 2048 nodes (MB/s)", model.Fig10(p)))
			fmt.Println("paper: 16.9 GB/s @PPN=1 (94% of the 18 GB/s ten-link peak)")
		},
	}

	order := []string{"table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}
	name := strings.ToLower(*exp)
	if name == "all" {
		for _, k := range order {
			experiments[k]()
			fmt.Println()
		}
		return
	}
	run, ok := experiments[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q (want one of %s, all)\n",
			*exp, strings.Join(order, ", "))
		os.Exit(2)
	}
	run()
}

// verifyAgainstDES derives Table 3's rendezvous column a second way —
// packet-level discrete-event simulation over contended links — and
// prints it next to the closed-form model and the paper.
func verifyAgainstDES() {
	p := model.Default()
	np := netsim.DefaultParams()
	dims := torus.Dims{3, 3, 3, 3, 3}
	paper := map[int]float64{1: 3333, 2: 6625, 4: 13139, 10: 32355}
	fmt.Println("Table 3 rendezvous column: paper vs closed-form model vs packet-level DES (MB/s)")
	fmt.Printf("%10s %10s %10s %10s\n", "neighbors", "paper", "model", "DES")
	for _, nb := range []int{1, 2, 4, 10} {
		_, rdv := model.Table3Throughput(p, nb)
		des, err := netsim.NeighborExchange(dims, np, nb, 1<<20, 2)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%10d %10.0f %10.0f %10.0f\n", nb, paper[nb], rdv, des)
	}
	fmt.Println("(the DES has no software-gap loss, so it sits a few percent above the model)")

	cp := netsim.DefaultCollectiveParams()
	fmt.Println()
	fmt.Println("Figure 7 (8B allreduce latency, PPN=1): model vs collective-tree DES (us)")
	fmt.Printf("%10s %10s %10s\n", "nodes", "model", "DES")
	for _, nodes := range model.FigNodeCounts {
		des, err := netsim.AllreduceLatency(model.ShapeFor(nodes), cp, 8)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%10d %10.2f %10.2f\n", nodes, model.Fig7Allreduce(p, nodes, 1)/1000, des.Micros())
	}
	fmt.Println("(the DES walks the real classroute spanning tree; paper anchor: 5.5us at 2048 nodes)")
}
