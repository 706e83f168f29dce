// The episode harness: one backend's run on one simulated cluster.
// Every application backend builds its cluster through NewEpisode and
// fills its result through Finish, and the TreadMarks backends of
// moldyn, nbf and unstruct share the pipelined force reduction of the
// paper's Figure 2 (PipelinedReduce).
package apps

import (
	"slices"

	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vm"
)

// Episode is one backend run: the simulated cluster, its measurement
// window, the result under construction, and the per-processor seconds
// figures the result reports as maxima.
type Episode struct {
	Cluster *sim.Cluster
	Res     *Result
	maxima  []procSeconds

	// The measurement window: the two barriers Start and End meet at,
	// and the statistics snapshots taken inside them.
	startID, endID     int
	startTime, endTime []float64
	startCats, endCats map[string]sim.CatStat
	startSync, endSync map[sim.LockKey]sim.LockStat
	endMem             map[sim.MemKey]sim.MemStat
	endMemPk           []sim.MemStat
}

// procSeconds is one PerProc accumulator and its Detail key.
type procSeconds struct {
	key string
	sec []float64
}

// NewEpisode builds the cluster a backend reporting as system runs on,
// and draws the measurement window's two barrier ids from it before
// anything runs on the cluster. Parallel backends pass their workload's
// machine config; the sequential references pass sim.DefaultConfig(1),
// which is never traced.
func NewEpisode(system string, cfg sim.Config) *Episode {
	cl := sim.NewCluster(cfg)
	e := &Episode{Cluster: cl, Res: &Result{System: system},
		startTime: make([]float64, cl.NProcs()), endTime: make([]float64, cl.NProcs())}
	e.startID = cl.UniqueBarrierID()
	e.endID = cl.UniqueBarrierID()
	return e
}

// Start opens the measurement window, which delimits the timed part of
// a run (the paper excludes initialization everywhere and, for nbf, the
// first iteration). All processors must call it. The snapshot is taken
// inside the barrier's combine step: with every processor blocked in
// the barrier no requests are in flight, so clocks, interrupt
// aggregates, and traffic counters are quiescent and the measurement is
// deterministic.
func (e *Episode) Start(p *sim.Proc) {
	c := e.Cluster
	p.BarrierExchange(e.startID, nil, 0, func(contrib []any) ([]any, []int, float64) {
		e.startCats = c.Stats.Categories()
		e.startSync = c.Sync.Snapshot()
		for i := range e.startTime {
			e.startTime[i] = c.Proc(i).Time()
		}
		return nil, nil, 0
	})
}

// End closes the measurement window. All processors must call it.
func (e *Episode) End(p *sim.Proc) {
	c := e.Cluster
	p.BarrierExchange(e.endID, nil, 0, func(contrib []any) ([]any, []int, float64) {
		e.endCats = c.Stats.Categories()
		e.endSync = c.Sync.Snapshot()
		e.endMem = c.Mem.Snapshot()
		e.endMemPk, _ = c.Mem.ProcPeaks()
		for i := range e.endTime {
			e.endTime[i] = c.Proc(i).Time()
		}
		return nil, nil, 0
	})
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
	r := e.Res
	worst := 0.0
	for i := range e.startTime {
		worst = max(worst, e.endTime[i]-e.startTime[i])
	}
	r.TimeSec = worst / 1e6
	var bytes int64
	for k, end := range e.endCats {
		r.Messages += end.Messages - e.startCats[k].Messages
		bytes += end.Bytes - e.startCats[k].Bytes
	}
	r.DataMB = float64(bytes) / 1e6
	// Footprints are ledger state rather than flows: the snapshot taken
	// inside the End barrier includes the memory allocated before Start,
	// because the arrays set up during initialization stay resident.
	r.Mem, r.MemPeak = e.endMem, e.endMemPk
	for _, p := range e.maxima {
		r.AddDetail(p.key, slices.Max(p.sec))
	}
	// The lock grid's aggregate is mirrored into Detail so the generic
	// detail printers show it.
	if locks := sim.SubSnapshots(e.endSync, e.startSync); len(locks) > 0 {
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
	for k, end := range e.endCats {
		start := e.startCats[k]
		if msgs, bytes := end.Messages-start.Messages, end.Bytes-start.Bytes; msgs != 0 || bytes != 0 {
			e.Res.AddDetail("msgs."+k, float64(msgs))
			e.Res.AddDetail("mb."+k, float64(bytes)/1e6)
		}
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

// PipelinedReduce is the paper's Figure 2 force reduction: the calling
// processor adds its private accumulation local into the shared array
// arr in nprocs stages, updating block (me+s) mod nprocs in stage s and
// meeting the others at barrier after every stage. Blocks are taken
// over len(local)/width entries of width elements each (3 for moldyn's
// force triples). The first writer of a block overwrites it, later
// writers read-modify-write every element; with a runtime each stage
// first validates its block with stages[s] (ReduceStages). usPerElem is
// the compute charged per reduced element.
func PipelinedReduce(proc *sim.Proc, node *tmk.Node, rt *core.Runtime, stages []core.Desc, arr *core.Array,
	local []float64, width, barrier int, usPerElem float64) {

	me, nprocs := proc.ID(), proc.NProcs()
	space := node.Space()
	for s := 0; s < nprocs; s++ {
		blo, bhi := chaos.BlockRange(len(local)/width, nprocs, (me+s)%nprocs)
		if lo, hi := width*blo, width*bhi; lo < hi {
			if rt != nil {
				rt.Validate(stages[s])
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

// ReduceStages binds processor me's PipelinedReduce descriptors over
// arr, taken as arr.Len/width blocks of width elements: stage 0 is the
// compiled firststage (WRITE_ALL), every later stage the compiled
// laterstage (READ&WRITE_ALL). The NoWriteAll ablation (A4) overrides
// each stage's access to READ&WRITE, so the stages twin and diff.
func ReduceStages(arr *core.Array, width, me, nprocs int, noWriteAll bool) []core.Desc {
	be := &compiler.BindEnv{Arrays: map[string]*core.Array{"forces": arr}, Env: compiler.Env{}}
	stages := make([]core.Desc, nprocs)
	for s := range stages {
		blo, bhi := chaos.BlockRange(arr.Len/width, nprocs, (me+s)%nprocs)
		be.Env["blo"], be.Env["bhi"] = width*blo+1, width*bhi
		stage := "laterstage"
		if s == 0 {
			stage = "firststage"
		}
		stages[s] = compiler.MustBind(compiler.ReductionKernel, stage, be)[0]
		if noWriteAll {
			stages[s].Access = core.ReadWrite
		}
	}
	return stages
}
