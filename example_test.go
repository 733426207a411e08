package dagguise_test

import (
	"context"
	"fmt"

	"dagguise"
)

// ExampleNewSystem shows the smallest complete protection setup: a victim
// trace behind a DAGguise shaper next to an unprotected co-runner.
func ExampleNewSystem() {
	victimTrace, err := dagguise.DocDistTrace(42, dagguise.DefaultDocDistConfig())
	if err != nil {
		panic(err)
	}
	profile, _ := dagguise.WorkloadByName("xz")
	coRunner, _ := dagguise.NewWorkloadSource(profile, 7)

	sys, err := dagguise.NewSystem(dagguise.DefaultConfig(2, dagguise.DAGguise), []dagguise.CoreSpec{
		{
			Name:      "victim",
			Source:    dagguise.LoopTrace(victimTrace),
			Protected: true,
			Defense:   dagguise.Template{Sequences: 8, Weight: 150, WriteRatio: 0.25, Banks: 8},
		},
		{Name: "xz", Source: coRunner},
	})
	if err != nil {
		panic(err)
	}
	sys.SetWatchdog(dagguise.DefaultWatchdog()) // a stall fails Measure instead of spinning
	res, err := sys.Measure(context.Background(), 10_000, 100_000)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Cores), "cores measured,", res.Cores[0].ShaperForwarded > 0)
	// Output: 2 cores measured, true
}

// ExampleMeasureLeakage quantifies a scheme's side-channel leakage for a
// one-bit secret: DAGguise measures exactly zero.
func ExampleMeasureLeakage() {
	secret0 := dagguise.AttackPattern{Gaps: []uint64{100}, Banks: []int{0, 1}}
	secret1 := dagguise.AttackPattern{Gaps: []uint64{200}, Banks: []int{0, 1}}
	probe := dagguise.AttackProbe{Bank: 0, Gap: 120}

	res, err := dagguise.MeasureLeakage(dagguise.DAGguise, dagguise.Template{},
		dagguise.CamouflageDistribution{}, secret0, secret1, probe, 100, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("leakage: %.3f bits/probe\n", res.SequenceMI)
	// Output: leakage: 0.000 bits/probe
}

// ExampleVerifySecurity runs the formal indistinguishability proof.
func ExampleVerifySecurity() {
	rep, err := dagguise.VerifySecurity(dagguise.DefaultVerifyModel(), 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("proven:", rep.Holds())
	// Output: proven: true
}

// ExampleEstimateArea reproduces the Table 3 hardware cost.
func ExampleEstimateArea() {
	res, err := dagguise.EstimateArea(dagguise.Table3AreaConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d gates, %.5f mm^2 total\n", res.ComputationGates, res.TotalAreaMM2)
	// Output: 13424 gates, 0.03727 mm^2 total
}

// ExampleTemplate_Unroll materialises a Figure 6 defense rDAG as a graph.
func ExampleTemplate_Unroll() {
	tpl := dagguise.Template{Sequences: 2, Weight: 600, Banks: 8}
	g, err := tpl.Unroll(3)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(g.Vertices), "vertices,", len(g.Edges), "edges")
	// Output: 6 vertices, 4 edges
}
