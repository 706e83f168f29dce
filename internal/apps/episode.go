// The episode harness: one backend's run on one simulated cluster.
// Every application backend builds its cluster through NewEpisode and
// fills its result through Finish, and the TreadMarks backends of
// moldyn, nbf and unstruct share the pipelined force reduction of the
// paper's Figure 2 (PipelinedReduce).
package apps

import (
	"slices"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/rsd"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vm"
)

// Episode is one backend run: the simulated cluster, its measurement
// window, the result under construction, and the per-processor seconds
// figures the result reports as maxima.
type Episode struct {
	Cluster *sim.Cluster
	Meas    *Measure
	Res     *Result
	maxima  []procSeconds
}

// procSeconds is one PerProc accumulator and its Detail key.
type procSeconds struct {
	key string
	sec []float64
}

// NewEpisode builds the cluster a backend reporting as system runs on,
// and the cluster's measurement window, whose two barrier ids are drawn
// here, before anything runs on the cluster. Parallel
// backends pass their workload's machine config; the sequential
// references pass sim.DefaultConfig(1), which is never traced.
func NewEpisode(system string, cfg sim.Config) *Episode {
	cl := sim.NewCluster(cfg)
	return &Episode{Cluster: cl, Meas: NewMeasure(cl), Res: &Result{System: system}}
}

// TmkSystem is the Result.System name of a TreadMarks backend: "tmk-opt"
// for the optimized (or batched) variant, "tmk" for the base one.
func TmkSystem(optimized bool) string {
	if optimized {
		return "tmk-opt"
	}
	return "tmk"
}

// PerProc returns a per-processor seconds accumulator that Finish
// reports as Detail[key]: the maximum over processors, the share of the
// critical path (e.g. "scan_s", "inspector_s").
func (e *Episode) PerProc(key string) []float64 {
	sec := make([]float64, e.Cluster.NProcs())
	e.maxima = append(e.maxima, procSeconds{key: key, sec: sec})
	return sec
}

// Finish fills the result from the closed measurement window: the
// makespan, the traffic totals, the memory ledger, every PerProc
// maximum and, when the window saw any lock activity, the lock grid.
func (e *Episode) Finish() *Result {
	r, m := e.Res, e.Meas
	r.TimeSec = m.TimeSec()
	r.Messages, r.DataMB = m.Traffic()
	// Footprints are ledger state rather than flows: the snapshot taken
	// inside the End barrier includes the memory allocated before Start,
	// because the arrays set up during initialization stay resident.
	r.Mem, r.MemPeak = m.endMem, m.endMemPk
	for _, p := range e.maxima {
		r.AddDetail(p.key, slices.Max(p.sec))
	}
	// The lock grid's aggregate is mirrored into Detail so the generic
	// detail printers show it.
	if locks := sim.SubSnapshots(m.endSync, m.startSync); len(locks) > 0 {
		r.Locks = locks
		t := sim.TotalLockStat(locks)
		r.AddDetail("lock_acquires", float64(t.Acquires))
		r.AddDetail("lock_wait_s", t.WaitUS/1e6)
		r.AddDetail("lock_hold_s", t.HoldUS/1e6)
		r.AddDetail("lock_grant_kb", float64(t.GrantBytes)/1e3)
	}
	return r
}

// FinishSeq fills a sequential reference's result: the time its one
// processor spent since t0, and the final state.
func (e *Episode) FinishSeq(t0 float64, x, f []float64) *Result {
	r := e.Res
	r.TimeSec = (e.Cluster.Proc(0).Time() - t0) / 1e6
	r.Speedup = 1
	r.X, r.Forces = x, f
	return r
}

// TrafficDetail adds the window's traffic per category as Detail
// entries "msgs.<category>" (messages) and "mb.<category>" (megabytes).
func (e *Episode) TrafficDetail() {
	for k, v := range e.Meas.Categories() {
		e.Res.AddDetail("msgs."+k, float64(v.Messages))
		e.Res.AddDetail("mb."+k, float64(v.Bytes)/1e6)
	}
}

// CollectShared reads the final state into the result through node 0's
// space — outside the window, before the DSM closes — demand-fetching
// whatever node 0 does not hold: n float64 slots of x and of f, read
// interleaved.
func (e *Episode) CollectShared(d *tmk.DSM, x, f *core.Array, n int) {
	s := d.Node(0).Space()
	e.Res.X, e.Res.Forces = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		e.Res.X[i] = s.ReadF64(x.Base + vm.Addr(8*i))
		e.Res.Forces[i] = s.ReadF64(f.Base + vm.Addr(8*i))
	}
}

// Assemble stores a CHAOS backend's final state into res in global
// order: owned[p] lists the elements processor p kept, and xs[p], fs[p]
// hold width values per owned element, in local-offset order.
func Assemble(res *Result, owned [][]int, width int, xs, fs [][]float64) {
	n := 0
	for _, globals := range owned {
		n += width * len(globals)
	}
	res.X, res.Forces = make([]float64, n), make([]float64, n)
	for p, globals := range owned {
		for k, g := range globals {
			copy(res.X[width*g:width*(g+1)], xs[p][width*k:])
			copy(res.Forces[width*g:width*(g+1)], fs[p][width*k:])
		}
	}
}

// RowRefs is a CHAOS inspector's reference stream for rows [lo, hi) of
// a flat per-row index list: each row's own index, then its per
// entries of refs.
func RowRefs(lo, hi, per int, refs []int32) []int {
	out := make([]int, 0, (hi-lo)*(per+1))
	for i := lo; i < hi; i++ {
		out = append(out, i)
		for _, r := range refs[i*per : (i+1)*per] {
			out = append(out, int(r))
		}
	}
	return out
}

// PipelinedReduce is the paper's Figure 2 force reduction: the calling
// processor adds its private accumulation local into the shared array
// arr in nprocs stages, updating block (me+s) mod nprocs in stage s and
// meeting the others at barrier after every stage. Blocks are taken
// over len(local)/width entries of width elements each (3 for moldyn's
// force triples). The first writer of a block overwrites it, later
// writers read-modify-write every element; with a runtime each stage
// first validates its block (reduceDesc). usPerElem is the compute
// charged per reduced element.
func PipelinedReduce(proc *sim.Proc, node *tmk.Node, rt *core.Runtime, arr *core.Array,
	local []float64, width, barrier int, noWriteAll bool, usPerElem float64) {

	me, nprocs := proc.ID(), proc.NProcs()
	space := node.Space()
	for s := 0; s < nprocs; s++ {
		blo, bhi := chaos.BlockRange(len(local)/width, nprocs, (me+s)%nprocs)
		if lo, hi := width*blo, width*bhi; lo < hi {
			if rt != nil {
				rt.Validate(reduceDesc(arr, lo, hi, s, noWriteAll))
			}
			if s == 0 {
				for j := lo; j < hi; j++ {
					space.WriteF64(arr.Addr(j), local[j])
				}
			} else {
				for j := lo; j < hi; j++ {
					space.WriteF64(arr.Addr(j), space.ReadF64(arr.Addr(j))+local[j])
				}
			}
			proc.Advance(usPerElem * float64(hi-lo))
		}
		node.Barrier(barrier)
	}
}

// reduceDesc is the descriptor of reduction stage s over elements
// [lo, hi) of arr: WRITE_ALL for the first writer, READ&WRITE_ALL for
// the later ones — or plain READ&WRITE (twinned diffs) under the
// NoWriteAll ablation.
func reduceDesc(arr *core.Array, lo, hi, stage int, noWriteAll bool) core.Desc {
	acc := core.ReadWriteAll
	switch {
	case noWriteAll:
		acc = core.ReadWrite
	case stage == 0:
		acc = core.WriteAll
	}
	return core.Desc{Type: core.Direct, Data: arr, Section: rsd.Range1(lo, hi-1), Access: acc, Sched: 2}
}
