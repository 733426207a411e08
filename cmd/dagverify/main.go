// Command dagverify runs the formal security verification of §5: bounded
// model checking of the indistinguishability property from reset (base
// step), the strengthened induction step, and the public-state determinism
// side condition, all discharged with the built-in CDCL SAT solver. With
// -leaky it verifies a deliberately broken shaper instead and prints the
// counterexample trace, mirroring the artifact's "improperly-chosen K"
// demonstration.
//
// Usage:
//
//	dagverify              # prove the property at the minimal k
//	dagverify -cycle 5     # check a specific unrolling depth
//	dagverify -leaky       # show a counterexample for a broken shaper
package main

import (
	"flag"
	"fmt"
	"os"

	"dagguise/internal/verify"
)

func main() {
	k := flag.Int("cycle", 0, "unrolling depth K (0 = search for the minimal K)")
	maxK := flag.Int("max", 16, "maximum K to try")
	banks := flag.Int("banks", 2, "banks in the verified model (1 or 2)")
	sequences := flag.Int("sequences", 1, "parallel defense-rDAG chains (1 or 2)")
	weight := flag.Int("weight", 2, "defense rDAG edge weight")
	latency := flag.Int("latency", 2, "FCFS memory latency")
	leaky := flag.Bool("leaky", false, "verify a deliberately broken shaper")
	flag.Parse()

	cfg := verify.DefaultModel()
	cfg.Banks = *banks
	cfg.Sequences = *sequences
	cfg.Weight = *weight
	cfg.MemLatency = *latency
	cfg.Leaky = *leaky

	v, err := verify.NewVerifier(cfg)
	if err != nil {
		fatal(err)
	}

	if *leaky {
		depth, cex, err := v.DetectionDepth(*maxK)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("**** Base Step Finished ****\n(sat at k=%d)\n\n%s", depth, cex)
		diffAt, err := v.Replay(cex)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nreplayed on the concrete model: receiver observations first differ at cycle %d\n", diffAt)
		fmt.Println("the broken shaper leaks: the two transmitter traces above produce different receiver observations")
		return
	}

	depth := *k
	if depth == 0 {
		depth, err = v.MinimalK(*maxK)
		if err != nil {
			fatal(err)
		}
	}
	rep, err := v.Verify(depth)
	if err != nil {
		fatal(err)
	}
	fmt.Println("**** Base Step Finished ****")
	fmt.Println(unsat(rep.BaseHolds))
	fmt.Println("**** Induction Step Finished ****")
	fmt.Println(unsat(rep.InductionHolds))
	fmt.Println("**** Public-State Determinism Finished ****")
	fmt.Println(unsat(rep.DeterminismHolds))
	fmt.Printf("largest SAT instance: %d variables, %d clauses\n", rep.Vars, rep.Clauses)
	if rep.Holds() {
		fmt.Printf("\nsecurity property proven at K=%d: the receiver's response trace is independent of the transmitter's requests\n", depth)
		return
	}
	fmt.Printf("\nverification FAILED at K=%d\n", depth)
	if rep.Cex != nil {
		fmt.Print(rep.Cex)
	}
	os.Exit(1)
}

func unsat(ok bool) string {
	if ok {
		return "(unsat)"
	}
	return "(sat)"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dagverify:", err)
	os.Exit(1)
}
