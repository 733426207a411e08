// Scaling: four protected victims on an eight-core machine (Figure 10's
// scenario). Two DocDist and two DNA-alignment victims run behind their
// own shapers next to four unprotected co-runners, under FS-BTA and under
// DAGguise, normalized to the insecure baseline.
//
// Run with: go run ./examples/scaling
package main

import (
	"context"
	"fmt"
	"log"

	"dagguise"
)

func main() {
	docdist, err := dagguise.DocDistTrace(42, dagguise.DefaultDocDistConfig())
	if err != nil {
		log.Fatal(err)
	}
	dna, err := dagguise.DNATrace(43, dagguise.DefaultDNAConfig())
	if err != nil {
		log.Fatal(err)
	}
	defense := dagguise.Template{Sequences: 4, Weight: 300, WriteRatio: 0.001, Banks: 8}

	build := func(scheme dagguise.Scheme, protected bool) *dagguise.System {
		var specs []dagguise.CoreSpec
		victims := []struct {
			name string
			tr   *dagguise.TraceSlice
		}{{"docdist-0", docdist}, {"dna-0", dna}, {"docdist-1", docdist}, {"dna-1", dna}}
		for i, v := range victims {
			cp := *v.tr
			specs = append(specs, dagguise.CoreSpec{
				Name: v.name, Source: dagguise.LoopTrace(&cp),
				Protected: protected, Defense: defense,
			})
			profile, err := dagguise.WorkloadByName("x264")
			if err != nil {
				log.Fatal(err)
			}
			co, err := dagguise.NewWorkloadSource(profile, int64(i)*13+5)
			if err != nil {
				log.Fatal(err)
			}
			specs = append(specs, dagguise.CoreSpec{Name: fmt.Sprintf("x264-%d", i), Source: co})
		}
		sys, err := dagguise.NewSystem(dagguise.DefaultConfig(8, scheme), specs)
		if err != nil {
			log.Fatal(err)
		}
		return sys
	}

	measure := func(scheme dagguise.Scheme, protected bool) dagguise.Result {
		res, err := build(scheme, protected).Measure(context.Background(), 30_000, 250_000)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := measure(dagguise.Insecure, false)
	fs := measure(dagguise.FSBTA, true)
	dag := measure(dagguise.DAGguise, true)

	fmt.Println("eight cores: 2x DocDist + 2x DNA protected, 4x x264 unprotected")
	fmt.Printf("%-12s %12s %12s\n", "core", "fs-bta", "dagguise")
	var fsSum, dagSum float64
	for i := range base.Cores {
		fn := fs.Cores[i].IPC / base.Cores[i].IPC
		dn := dag.Cores[i].IPC / base.Cores[i].IPC
		fsSum += fn
		dagSum += dn
		fmt.Printf("%-12s %12.3f %12.3f\n", base.Cores[i].Name, fn, dn)
	}
	n := float64(len(base.Cores))
	fmt.Printf("%-12s %12.3f %12.3f\n", "average", fsSum/n, dagSum/n)
	fmt.Printf("\nDAGguise delivers %.0f%% more system throughput than FS-BTA at the same security level\n",
		(dagSum/fsSum-1)*100)
}
