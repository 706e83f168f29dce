// The TreadMarks backends for taskq: the counter is one int64 in the
// DSM under a single lock, and the counter page migrates with the lock
// from grantee to grantee — every acquire invalidates the new holder's
// copy and the first read fetches the previous holder's diff. The base
// variant claims one item per acquire (maximum contention, the arbiter
// stress case); the batched variant claims Params.Batch items per
// acquire, trading lock traffic for coarser load balancing.
package taskq

import (
	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vm"
)

// lockCounter protects the shared queue-head counter.
const lockCounter = 1

// TmkOptions selects the TreadMarks variant.
type TmkOptions struct {
	Batched bool // claim Params.Batch items per lock acquire
}

// Image is taskq's initial TreadMarks image: the zero queue-head
// counter in a sealed two-page arena, built once per workload and
// shared by both TreadMarks variants.
type Image struct {
	*tmk.Image
	cAddr vm.Addr
}

// BuildImage lays out the shared counter and writes its initial zero.
func BuildImage(w *Workload) *Image {
	img := tmk.NewImage(w.P.PageSize, 2*w.P.PageSize)
	im := &Image{Image: img, cAddr: img.Alloc(8)}
	img.Space().WriteI64(im.cAddr, 0)
	img.Seal()
	return im
}

// RunTmk executes taskq on the TreadMarks DSM, starting from im.
func RunTmk(w *Workload, im *Image, opt TmkOptions) *apps.Result {
	p := w.P
	nprocs := p.Procs
	batch := int64(1)
	if opt.Batched {
		batch = int64(p.Batch)
	}

	ep := apps.NewEpisode(apps.TmkSystem(opt.Batched), p.Machine.Config(nprocs))
	d := tmk.NewFromImage(ep.Cluster, im.Image)
	cAddr := im.cAddr

	sums := make([]int64, nprocs)
	ep.Cluster.Run(func(proc *sim.Proc) {
		me := proc.ID()
		node := d.Node(me)
		space := node.Space()
		ep.Start(proc)
		for {
			node.AcquireLock(lockCounter)
			lo := space.ReadI64(cAddr)
			hi := lo
			if lo < int64(p.N) {
				hi = lo + batch
				if hi > int64(p.N) {
					hi = int64(p.N)
				}
				space.WriteI64(cAddr, hi)
			}
			node.ReleaseLock(lockCounter)
			if hi == lo {
				break
			}
			for i := lo; i < hi; i++ {
				sums[me] += i
				proc.Advance(w.WorkUS[i])
			}
		}
		node.Barrier(1)
		ep.End(proc)
	})

	var sum int64
	for _, s := range sums {
		sum += s
	}
	counter := d.Node(0).Space().ReadI64(cAddr)
	res := resultOf(ep.Finish(), counter, sum)
	ep.TrafficDetail()
	d.Close()
	return res
}
