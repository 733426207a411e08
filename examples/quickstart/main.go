// Quickstart: protect a real victim application with DAGguise.
//
// This example records the memory trace of an actual Document Distance
// computation (whose access pattern leaks its private input document),
// selects a defense rDAG, runs the victim behind a DAGguise shaper next to
// an unprotected SPEC-like co-runner, and reports what each side paid.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dagguise"
)

func main() {
	// 1. The victim: a real DocDist computation over a private document.
	victimTrace, err := dagguise.DocDistTrace(42, dagguise.DefaultDocDistConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded DocDist trace: %d memory operations\n", len(victimTrace.Ops))

	// 2. The co-runner: a synthetic SPEC-like application (xz profile).
	profile, err := dagguise.WorkloadByName("xz")
	if err != nil {
		log.Fatal(err)
	}
	coRunner, err := dagguise.NewWorkloadSource(profile, 7)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The defense rDAG: the knee of DocDist's profiling curve on this
	// simulator (run `dagprof` to derive one for your own victim).
	defense := dagguise.Template{Sequences: 8, Weight: 150, WriteRatio: 0.001, Banks: 8}

	run := func(scheme dagguise.Scheme, protected bool) dagguise.Result {
		cp := *victimTrace // fresh cursor per run
		sys, err := dagguise.NewSystem(dagguise.DefaultConfig(2, scheme), []dagguise.CoreSpec{
			{Name: "docdist", Source: dagguise.LoopTrace(&cp), Protected: protected, Defense: defense},
			{Name: "xz", Source: coRunner},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Measure(context.Background(), 30_000, 300_000)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	insecure := run(dagguise.Insecure, false)
	protected := run(dagguise.DAGguise, true)

	fmt.Println("\n                 victim IPC   co-runner IPC   memory traffic")
	fmt.Printf("insecure         %10.3f %15.3f %11.2f GB/s\n",
		insecure.Cores[0].IPC, insecure.Cores[1].IPC, insecure.TotalGBps)
	fmt.Printf("DAGguise         %10.3f %15.3f %11.2f GB/s\n",
		protected.Cores[0].IPC, protected.Cores[1].IPC, protected.TotalGBps)
	fmt.Printf("normalized       %10.3f %15.3f\n",
		protected.Cores[0].IPC/insecure.Cores[0].IPC,
		protected.Cores[1].IPC/insecure.Cores[1].IPC)
	fmt.Printf("\nshaper: %d real requests forwarded, %d fakes emitted\n",
		protected.Cores[0].ShaperForwarded, protected.Cores[0].ShaperFakes)
	fmt.Println("the victim's memory access pattern is now the defense rDAG's — independent of its document")
}
