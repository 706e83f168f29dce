// Quickstart: the smallest complete program against the DSM API.
//
// It writes the initial image of a shared array and an indirection
// array, attaches a 4-processor cluster to it (the construction path
// every application backend takes: NewImage, Seal, NewFromImage), and
// shows the paper's core mechanism end to end:
// processor 0 updates the data, and processor 1 — instead of taking one
// page fault per page in its irregular traversal — issues a single
// Validate call that scans its section of the indirection array,
// computes the page set, and prefetches all the diffs in one aggregated
// exchange per remote processor. Each processor's line is printed in
// processor order after the run.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rsd"
	"repro/internal/sim"
	"repro/internal/tmk"
)

func main() {
	const (
		nprocs  = 4
		nData   = 4096 // shared float64 cells
		nIdx    = 1024 // indirection entries per processor
		pageLen = 4096
	)

	// The initial image of the shared memory: data (float64) and an
	// indirection array (int32).
	img := tmk.NewImage(pageLen, 1<<22)
	data := &core.Array{Name: "data", Base: img.Alloc(8 * nData), ElemSize: 8, Len: nData}
	index := &core.Array{Name: "index", Base: img.Alloc(4 * nIdx * nprocs), ElemSize: 4, Len: nIdx * nprocs}

	// Initialization (untimed, on the host): data[i] = i, and each
	// processor's index section strides irregularly through data.
	s0 := img.Space()
	for i := 0; i < nData; i++ {
		s0.WriteF64(data.Addr(i), float64(i))
	}
	for i := 0; i < nIdx*nprocs; i++ {
		s0.WriteI32(index.Addr(i), int32((i*2654435761)%nData))
	}
	img.Seal()

	// A simulated 4-processor cluster and a TreadMarks DSM over it,
	// every node starting from the sealed image.
	cluster := sim.NewCluster(sim.DefaultConfig(nprocs))
	dsm := tmk.NewFromImage(cluster, img)

	report := make([]string, nprocs)
	cluster.Run(func(p *sim.Proc) {
		me := p.ID()
		node := dsm.Node(me)
		space := node.Space()
		rt := core.NewRuntime(node)

		// Processor 0 updates every data page; the others will need
		// those updates for their irregular reads.
		if me == 0 {
			for i := 0; i < nData; i += 64 {
				space.WriteF64(data.Addr(i), float64(-i))
			}
		}
		node.Barrier(1)

		// The compiler-inserted call (here written by hand): one
		// INDIRECT descriptor naming the section of the indirection
		// array this processor scans.
		lo, hi := me*nIdx, (me+1)*nIdx-1
		rt.Validate(core.Desc{
			Type: core.Indirect, Data: data, Indir: index,
			Section: rsd.Range1(lo, hi),
			Access:  core.Read, Sched: 1,
		})

		// The irregular loop now runs without a single page fault.
		before := space.ReadFaults
		sum := 0.0
		for k := lo; k <= hi; k++ {
			j := int(space.ReadI32(index.Addr(k)))
			sum += space.ReadF64(data.Addr(j))
		}
		report[me] = fmt.Sprintf("proc %d: sum=%14.1f   faults during loop: %d\n",
			me, sum, space.ReadFaults-before)
		node.Barrier(2)
	})

	for _, line := range report {
		fmt.Print(line)
	}

	msgs, bytes := cluster.Stats.Totals()
	fmt.Printf("\ntotal traffic: %d messages, %d bytes\n", msgs, bytes)
	fmt.Printf("simulated time: %.3f ms\n", cluster.MaxTime()/1e3)
	fmt.Println("\nper-category traffic:")
	fmt.Print(cluster.Stats.String())
}
