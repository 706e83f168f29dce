// The inspector and executor (§4). The inspector runs once per
// indirection-array change: it scans the global indices the processor's
// iterations access, eliminates duplicates with a hash table, translates
// the survivors through the translation table, assigns ghost slots for
// off-processor elements, and exchanges send lists so both sides of
// every pair know the communication schedule. The executor then moves
// data with sender-initiated single messages: Gather fetches
// off-processor data into the ghost region, ScatterAdd pushes
// accumulated contributions back to their owners.
package chaos

import (
	"iter"
	"slices"

	"repro/internal/sim"
)

// Schedule is a communication schedule: for each peer, which of the
// peer's local elements we receive (into which ghost slots), and which
// of our local elements we send.
type Schedule struct {
	Me     int
	NProcs int

	// OwnCount is the number of elements this processor owns; ghost
	// slots follow at local indices [OwnCount, OwnCount+Ghosts).
	OwnCount int
	Ghosts   int

	// RecvFrom[q] lists, in ghost-slot order, the q-local indices whose
	// values we receive from q.
	RecvFrom [][]int32
	// RecvSlot[q] lists the ghost slots (our local indices) those values
	// fill; parallel to RecvFrom[q].
	RecvSlot [][]int32
	// SendTo[q] lists our local element indices whose values we send to q.
	SendTo [][]int32

	// localOf maps a global element index to its local slot (owned or
	// ghost) on this processor; -1 if untouched here.
	localOf []int32

	// bufs[q] is the executor payload last received from q, kept as the
	// next send buffer to q (see Gather).
	bufs [][]float64
}

// MemCatSched is the sim.MemStats category for retained schedule
// storage; MemCatInspector covers the inspector's transient hash table.
const (
	MemCatSched     = "chaos.sched"
	MemCatInspector = "chaos.inspector"
)

// MemBytes returns the modeled storage of the schedule: the global→
// local map plus the per-peer receive/slot/send lists (4 bytes per
// entry each, like the int32s they hold).
func (s *Schedule) MemBytes() int64 {
	b := int64(4 * len(s.localOf))
	for q := 0; q < s.NProcs; q++ {
		b += int64(4 * (len(s.RecvFrom[q]) + len(s.RecvSlot[q]) + len(s.SendTo[q])))
	}
	return b
}

// ReleaseMem returns the schedule's storage charge to the ledger. Call
// it when the schedule is replaced (a re-run inspector) or at teardown.
func (s *Schedule) ReleaseMem(p *sim.Proc) {
	p.Cluster().Mem.Free(p.ID(), MemCatSched, s.MemBytes())
}

// LocalOf returns the local slot of global element g, or -1.
func (s *Schedule) LocalOf(g int) int32 { return s.localOf[g] }

// InspectorCost models the per-entry costs of the inspector; the paper's
// key observation is that hashing every indirection entry and consulting
// the translation table makes the inspector expensive (6.2–9.2 s for
// moldyn) compared with Validate's page-set scan (0.4–0.8 s).
type InspectorCost struct {
	HashUSPerEntry float64
	BuildUSPerElem float64
	// TranslateAll translates every reference through the table before
	// duplicate elimination — the ordering the paper's measured moldyn
	// program exhibits (its distributed-table inspector exchanged 85 MB
	// in 878 messages, roughly the full reference stream).
	TranslateAll bool
}

// DefaultInspectorCost returns the calibrated cost model.
func DefaultInspectorCost() InspectorCost {
	return InspectorCost{HashUSPerEntry: 0.25, BuildUSPerElem: 0.15}
}

// Inspect is InspectStream over a materialized reference list.
func Inspect(p *sim.Proc, tag int, globals []int, tt *TransTable, cost InspectorCost) *Schedule {
	return InspectStream(p, tag, slices.Values(globals), tt, cost)
}

// InspectStream builds processor p's communication schedule. refs
// yields, in iteration order and with duplicates, every global data
// element the processor's iterations access; it is walked in place (once
// for dedup, and once more before it under TranslateAll), never copied.
// tt supplies translation. Peer send lists are exchanged with one
// message per communicating pair ("chaos.sched"). All processors must
// call InspectStream collectively with the same tag (a phase id
// distinguishing successive inspector runs).
func InspectStream(p *sim.Proc, tag int, refs iter.Seq[int], tt *TransTable, cost InspectorCost) *Schedule {
	me := p.ID()
	nprocs := p.NProcs()
	n := tt.N()
	inspectT0 := p.Clock()

	if cost.TranslateAll {
		// Translate the raw reference stream (charging the full
		// distributed-table traffic), then dedup.
		tt.chargeLookups(p, refs)
	}

	// Duplicate elimination via a hash table sized to the data array
	// (§4: "a hash table whose size is proportional to the size of the
	// data array is employed to eliminate duplicates"). The table is
	// exactly the transient allocation the paper's memory observation is
	// about, so it is charged (and freed below) — the per-proc peak
	// footprint sees it even though it does not outlive the inspector.
	// The distinct set is the table's marked entries read in index
	// order, i.e. sorted; it is never materialized.
	mem := &p.Cluster().Mem
	mem.Alloc(me, MemCatInspector, int64(n))
	seen := make([]bool, n)
	nrefs := 0
	for g := range refs {
		seen[g] = true
		nrefs++
	}
	distinct := func(yield func(int) bool) {
		for g, ok := range seen {
			if ok && !yield(g) {
				return
			}
		}
	}
	p.Advance(cost.HashUSPerEntry * float64(nrefs))

	// Translate the distinct elements (may communicate, depending on the
	// table organization; already paid above under TranslateAll).
	if !cost.TranslateAll {
		tt.chargeLookups(p, distinct)
	}

	sch := &Schedule{
		Me:       me,
		NProcs:   nprocs,
		RecvFrom: make([][]int32, nprocs),
		RecvSlot: make([][]int32, nprocs),
		SendTo:   make([][]int32, nprocs),
		localOf:  make([]int32, n),
		bufs:     make([][]float64, nprocs),
	}
	// Owned elements occupy their remapped offsets — all of them, not
	// just the accessed ones, so ghost slots start past the full block.
	// Count the remote distinct elements per home processor so the
	// receive lists are allocated at their exact sizes.
	own, ndistinct := 0, 0
	remote := make([]int, nprocs)
	for g := 0; g < n; g++ {
		sch.localOf[g] = -1
		q := tt.owner[g]
		if q == me {
			sch.localOf[g] = tt.local[g]
			own++
		}
		if seen[g] {
			ndistinct++
			if q != me {
				remote[q]++
			}
		}
	}
	sch.OwnCount = own
	for q, k := range remote {
		if k > 0 {
			sch.RecvFrom[q] = make([]int32, 0, k)
			sch.RecvSlot[q] = make([]int32, 0, k)
		}
	}
	// Ghost slots for remote elements, grouped by home processor.
	ghost := int32(own)
	for g := range distinct {
		q := tt.owner[g]
		if q == me {
			continue
		}
		sch.RecvFrom[q] = append(sch.RecvFrom[q], tt.local[g])
		sch.RecvSlot[q] = append(sch.RecvSlot[q], ghost)
		sch.localOf[g] = ghost
		ghost++
	}
	sch.Ghosts = int(ghost) - own
	p.Advance(cost.BuildUSPerElem * float64(ndistinct))
	mem.Free(me, MemCatInspector, int64(n))

	// Exchange send lists: q must learn which of its elements we want.
	// One message per communicating pair, counted under "chaos.sched".
	type reqMsg struct{ wants []int32 }
	for q := 0; q < nprocs; q++ {
		if q == me {
			continue
		}
		p.Send(q, "chaos.sched", tag, &reqMsg{wants: sch.RecvFrom[q]}, 4*len(sch.RecvFrom[q]))
	}
	p.RecvEach("chaos.sched", tag, nprocs-1, func(from int, payload any) {
		sch.SendTo[from] = payload.(*reqMsg).wants
	})
	// Charge the retained schedule only now that the send lists are in
	// (MemBytes must match what ReleaseMem will free).
	mem.Alloc(me, MemCatSched, sch.MemBytes())
	// Trace annotation: the whole inspector phase (hash, translate,
	// schedule exchange) as one span, sized by the retained schedule.
	p.TraceSpan("chaos.inspect", inspectT0, p.Clock(), sch.MemBytes())
	return sch
}

// ExecutorCost models per-element pack/unpack time in gather/scatter.
type ExecutorCost struct {
	PackUSPerElem float64
}

// DefaultExecutorCost returns the calibrated executor cost.
func DefaultExecutorCost() ExecutorCost { return ExecutorCost{PackUSPerElem: 0.05} }

// sendBuf returns a buffer of exactly n values for a message to q: the
// payload last received from q if its capacity suffices, else a new
// one. The caller overwrites every element, sends it, and never touches
// it again.
func (s *Schedule) sendBuf(q, n int) []float64 {
	buf := s.bufs[q]
	s.bufs[q] = nil
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Gather fills the ghost region of data from the owners, using one
// sender-initiated message per communicating pair ("chaos.gather") — the
// one-message push the paper contrasts with TreadMarks' two-message
// request/response. data holds width float64 values per element slot,
// layout [owned | ghosts]. All processors must call Gather collectively
// with the same tag (a unique phase id, e.g. the time step).
//
// Payloads travel with the messages: a sender never touches a payload
// after Send, and the receiver, once it has copied the values out,
// keeps the payload as its next send buffer to that peer (Gather and
// ScatterAdd alike). A steady-state executor round allocates no
// payload storage.
func Gather(p *sim.Proc, tag int, sch *Schedule, data []float64, width int, cost ExecutorCost) {
	me := sch.Me
	expect := 0
	for q := 0; q < sch.NProcs; q++ {
		if q == me {
			continue
		}
		if len(sch.RecvFrom[q]) > 0 {
			expect++
		}
		if len(sch.SendTo[q]) == 0 {
			continue
		}
		vals := sch.sendBuf(q, width*len(sch.SendTo[q]))
		for i, li := range sch.SendTo[q] {
			copy(vals[i*width:], data[int(li)*width:int(li)*width+width])
		}
		p.Advance(cost.PackUSPerElem * float64(len(vals)))
		p.Send(q, "chaos.gather", tag, vals, 8*len(vals))
	}
	// Drain in the total message order (not arrival order) so the
	// interleave of causal clock merges and unpack charges — and hence
	// the simulated time — is identical every run.
	p.RecvEach("chaos.gather", tag, expect, func(from int, payload any) {
		vals := payload.([]float64)
		slots := sch.RecvSlot[from]
		for i := range slots {
			copy(data[int(slots[i])*width:int(slots[i])*width+width], vals[i*width:i*width+width])
		}
		p.Advance(cost.PackUSPerElem * float64(len(vals)))
		sch.bufs[from] = vals
	})
}

// ScatterAdd pushes ghost-slot contributions back to their owners, which
// add them into their elements ("chaos.scatter"); used for the force
// reduction. data holds width float64 values per slot. All processors
// must call ScatterAdd collectively with the same tag. Payloads travel
// as in Gather.
func ScatterAdd(p *sim.Proc, tag int, sch *Schedule, data []float64, width int, cost ExecutorCost) {
	me := sch.Me
	expect := 0
	for q := 0; q < sch.NProcs; q++ {
		if q == me {
			continue
		}
		if len(sch.SendTo[q]) > 0 {
			expect++
		}
		if len(sch.RecvFrom[q]) == 0 {
			continue
		}
		vals := sch.sendBuf(q, width*len(sch.RecvFrom[q]))
		for i, slot := range sch.RecvSlot[q] {
			copy(vals[i*width:], data[int(slot)*width:int(slot)*width+width])
		}
		p.Advance(cost.PackUSPerElem * float64(len(vals)))
		p.Send(q, "chaos.scatter", tag, vals, 8*len(vals))
	}
	// Total-order drain: beyond the clock interleave, the additions into
	// data happen in a fixed peer order (the apps' lattice arithmetic is
	// exact so any order agrees bit-for-bit, but the harness should not
	// depend on that).
	p.RecvEach("chaos.scatter", tag, expect, func(from int, payload any) {
		vals := payload.([]float64)
		for i, li := range sch.SendTo[from] {
			for d := 0; d < width; d++ {
				data[int(li)*width+d] += vals[i*width+d]
			}
		}
		p.Advance(cost.PackUSPerElem * float64(len(vals)))
		sch.bufs[from] = vals
	})
}
