// The Figure 5 running example: security and adaptivity.
//
// Part 1 (security): a victim emits requests with a 100-cycle gap when its
// secret is 0 and a 200-cycle gap when it is 1. An attacker times its own
// same-bank probes. On the insecure baseline the two secrets are
// immediately distinguishable; behind DAGguise the attacker's latency
// sequences are bit-for-bit identical.
//
// Part 2 (adaptivity): a co-runner alternates between a light phase and a
// heavy phase. The defense rDAG's timing dependencies are relative to
// completion times, so the shaper automatically slows during the heavy
// phase — yielding bandwidth — and speeds back up afterwards, with no
// re-profiling.
//
// Run with: go run ./examples/runningexample
package main

import (
	"context"
	"fmt"
	"log"

	"dagguise"
)

func security() {
	secret0 := dagguise.AttackPattern{Gaps: []uint64{100}, Banks: []int{0, 1, 2, 3}}
	secret1 := dagguise.AttackPattern{Gaps: []uint64{200}, Banks: []int{0, 1, 2, 3}}
	probe := dagguise.AttackProbe{Bank: 0, Row: 0, Gap: 120}

	fmt.Println("Part 1 — security: can the attacker tell secret 0 from secret 1?")
	for _, scheme := range []dagguise.Scheme{dagguise.Insecure, dagguise.DAGguise} {
		res, err := dagguise.MeasureLeakage(scheme, dagguise.Template{}, dagguise.CamouflageDistribution{},
			secret0, secret1, probe, 200, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s leakage %.3f bits/probe, secret-guessing accuracy %.0f%%\n",
			scheme, res.SequenceMI, res.Accuracy*100)
	}
}

// phasedCoRunner builds a trace that alternates a light phase (sparse
// independent reads) and a heavy phase (dense reads), mimicking
// Figure 5(c)'s unprotected program.
func phasedCoRunner() *dagguise.TraceSlice {
	var ops []dagguise.TraceOp
	addr := uint64(1 << 33)
	for block := 0; block < 8; block++ {
		// Sized so each phase spans roughly two measurement windows.
		gap, n := 400, 2400 // light phase: one miss per ~400 instructions
		if block%2 == 1 {
			gap, n = 2, 9000 // heavy phase: back-to-back misses
		}
		for i := 0; i < n; i++ {
			addr += 64
			ops = append(ops, dagguise.TraceOp{Addr: addr, Gap: gap})
		}
	}
	return &dagguise.TraceSlice{Ops: ops}
}

func adaptivity() {
	fmt.Println("\nPart 2 — adaptivity: the shaper yields bandwidth under contention")
	victimTrace, err := dagguise.DocDistTrace(42, dagguise.DefaultDocDistConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := dagguise.NewSystem(dagguise.DefaultConfig(2, dagguise.DAGguise), []dagguise.CoreSpec{
		{
			Name:      "victim",
			Source:    dagguise.LoopTrace(victimTrace),
			Protected: true,
			Defense:   dagguise.Template{Sequences: 8, Weight: 150, WriteRatio: 0.001, Banks: 8},
		},
		{Name: "phased", Source: dagguise.LoopTrace(phasedCoRunner())},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(context.Background(), 20_000); err != nil { // warm up
		log.Fatal(err)
	}
	fmt.Println("  window   victim GB/s   co-runner GB/s")
	for w := 0; w < 8; w++ {
		res, err := sys.Measure(context.Background(), 0, 60_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %6d %13.2f %16.2f\n", w, res.Cores[0].BandwidthGBps, res.Cores[1].BandwidthGBps)
	}
	fmt.Println("  (victim bandwidth dips in the co-runner's heavy windows and recovers after —")
	fmt.Println("   the rDAG stretched under contention instead of holding a static allocation)")
}

func main() {
	security()
	adaptivity()
}
