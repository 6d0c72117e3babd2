// Package pamigo is a from-scratch Go reproduction of "PAMI: A Parallel
// Active Message Interface for the Blue Gene/Q Supercomputer" (Kumar et
// al., IPDPS 2012): the PAMI messaging runtime, an MPICH2-style MPI layer
// on top of it, and functional models of every BG/Q hardware substrate
// the paper depends on — the 5D torus, the Message Unit, the L2 atomic
// unit, the wakeup unit, the collective network with classroutes, and the
// CNK process/commthread environment.
//
// Import the public APIs from pamigo/pami and pamigo/mpi. The root
// package carries this overview only. cmd/paperbench prints the paper's
// tables and figures from the calibrated model; the benchmark module
// under benchmark/ (its workloads declared in BENCHMARK.json) is where
// the functional runtime's performance is measured.
package pamigo
