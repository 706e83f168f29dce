// Synchronization: the centralized write-notice board, barriers with
// lazy-invalidate notice exchange, and locks.
//
// TreadMarks propagates consistency information lazily: the acquirer of
// a synchronization object learns, at acquire time, which pages were
// modified by intervals it has not yet seen, and invalidates them. We
// centralize the notice store at a manager (the barrier manager of
// TreadMarks, generalized to locks — a "manager-cached" variant noted in
// DESIGN.md §6); each node keeps a per-writer interval watermark (seen)
// so the manager ships only the notices the node lacks.
package tmk

import (
	"sync"

	"repro/internal/sim"
)

// noticeBoard is the manager-side store of every write notice posted so
// far, indexed by writer.
type noticeBoard struct {
	mu       sync.Mutex
	byWriter [][]*Notice // byWriter[w][i] has Interval == i+1
	// bytes is the board storage charged to the global mem shard so
	// far (the posted notices' wire bytes).
	bytes int64
}

func newNoticeBoard(nprocs int) *noticeBoard {
	return &noticeBoard{byWriter: make([][]*Notice, nprocs)}
}

// postLocked posts each notice that extends its writer's interval
// sequence (Interval == len+1; a notice already posted is skipped) and
// charges the posted wire bytes to mem's global shard — grow-only, so
// the peak does not depend on which goroutine posts first. It returns
// how many notices it posted. The caller holds b.mu.
func (b *noticeBoard) postLocked(nts []*Notice, mem *sim.MemStats) int {
	posted := 0
	var postedBytes int64
	for _, nt := range nts {
		w := nt.Proc
		if int(nt.Interval) == len(b.byWriter[w])+1 {
			b.byWriter[w] = append(b.byWriter[w], nt)
			posted++
			postedBytes += int64(nt.WireBytes())
		}
	}
	b.bytes += postedBytes
	mem.Alloc(-1, MemCatBoard, postedBytes)
	return posted
}

// barrierContribution travels from each node to the barrier manager.
type barrierContribution struct {
	notices []*Notice
	seen    []int32
	reply   *barrierReply // the arriving node's reply, filled by the combine
}

// barrierReply travels back: the notices this node lacks.
type barrierReply struct {
	notices []*Notice
}

// Barrier performs a TreadMarks barrier: the arrival message carries the
// node's new interval notices to the manager; the release message
// carries back every notice the node has not seen; the node then
// invalidates the pages those notices name (§2: "the releaser notifies
// the acquirer of which pages have been modified, causing the acquirer
// to invalidate its local copies of these pages").
//
// The contribution and the reply are the node's own, reused every
// episode. The node hands its contribution over and is blocked in
// BarrierExchange until the combine has read it and written the reply,
// and it is done with the reply before it can arrive at the next
// barrier — the only place either is written again.
func (n *Node) Barrier(id int) {
	n.closeInterval()

	contrib := &n.barrierIn
	contrib.notices = n.newNotices
	contrib.seen = append(contrib.seen[:0], n.seen...)
	bytes := 4 * len(contrib.seen)
	for _, nt := range contrib.notices {
		bytes += nt.WireBytes()
	}

	reply := n.proc.BarrierExchange(id, contrib, bytes, n.combine)

	n.newNotices = n.newNotices[:0]
	if reply != nil {
		r := reply.(*barrierReply)
		n.applyNotices(r.notices)
		for _, nt := range r.notices {
			if n.seen[nt.Proc] < nt.Interval {
				n.seen[nt.Proc] = nt.Interval
			}
		}
	}
	n.seen[n.proc.ID()] = n.vc[n.proc.ID()]
}

// combineBarrier is the barrier manager's logic (Barrier's combine,
// bound once per node as n.combine): it posts every arrival's new
// notices to the board and writes each arrival's reply with the notices
// that node lacks.
func (n *Node) combineBarrier(contribs []any) ([]any, []int, float64) {
	board := n.d.board
	board.mu.Lock()
	defer board.mu.Unlock()
	posted := 0
	for _, c := range contribs {
		posted += board.postLocked(c.(*barrierContribution).notices, &n.d.cluster.Mem)
	}
	replies, rbytes := n.d.barReplies, n.d.barBytes
	var totalNotices int
	for i, c := range contribs {
		cb := c.(*barrierContribution)
		r := cb.reply
		r.notices, rbytes[i] = board.missingForLocked(r.notices[:0], cb.seen, i)
		replies[i] = r
		totalNotices += len(r.notices)
	}
	combineUS := float64(posted)*1.0 + float64(totalNotices)*0.3
	return replies, rbytes, combineUS
}

// missingForLocked appends to out the notices of every writer but self
// that lie beyond the seen watermarks, and returns them with their wire
// size. The board lock must be held.
func (b *noticeBoard) missingForLocked(out []*Notice, seen []int32, self int) ([]*Notice, int) {
	bytes := 0
	for w, nts := range b.byWriter {
		if w == self {
			continue
		}
		for i := int(seen[w]); i < len(nts); i++ {
			out = append(out, nts[i])
			bytes += nts[i].WireBytes()
		}
	}
	return out, bytes
}

// AcquireLock acquires lock id: a request message to the manager
// (statically id mod nprocs) and a grant message back, the grant
// carrying the write notices the acquirer lacks. Blocks while another
// processor holds the lock.
//
// Grant order is decided by the simulator's deterministic arbiter
// (sim.Proc.AcquireResource): requests are ordered by their simulated
// arrival time at the manager, ties by processor id, and the decision is
// taken only at cluster quiescence, so the grant chain — and with it
// every hold time and final simulated time — is identical run to run.
// The notice-board snapshot the grant carries is taken at the grant
// instant (the onGrant hook), when no other processor is mutating the
// board.
func (n *Node) AcquireLock(id int) {
	cfg := n.proc.Config()
	d := n.d
	cl := n.proc.Cluster()
	mgr := id % cfg.Procs // static manager assignment

	reqArrive := n.proc.Clock() + cl.LinkLatencyUS(n.proc.ID(), mgr)
	// The grant carries the missing notices (snapshotGrant).
	grantFree := n.proc.AcquireResource(id, reqArrive, n.onGrant)
	nts, bytes := n.grantNotices, n.grantBytes
	grantAt := reqArrive
	if grantFree > grantAt {
		grantAt = grantFree
	}
	grantAt += cfg.InterruptUS * cl.CPUFactor(mgr) // manager handling, at the manager's speed

	reqB := 4 * len(n.seen) // request carries the per-writer watermark
	d.cluster.Stats.CountP(n.proc.ID(), "tmk.lock",
		cfg.Frags(reqB)+cfg.Frags(bytes), cfg.WireBytes(reqB)+cfg.WireBytes(bytes))
	d.cluster.Sync.CountGrantBytes(n.proc.ID(), id, int64(bytes))
	// Trace annotation: the consistency freight this grant carried (the
	// write notices the acquirer lacked), at the grant instant.
	n.proc.TraceMark("tmk.notices", grantAt, int64(bytes))
	n.proc.AdvanceTo(grantAt + cl.LinkLatencyUS(mgr, n.proc.ID()) + cl.LinkXferUS(mgr, n.proc.ID(), bytes))

	n.applyNotices(nts)
	for _, nt := range nts {
		if n.seen[nt.Proc] < nt.Interval {
			n.seen[nt.Proc] = nt.Interval
		}
	}
}

// snapshotGrant is AcquireLock's onGrant hook: it records the notices
// this node lacks at the grant instant. applyNotices keeps the notices,
// not the slice, so the buffer is reused by the next acquire.
func (n *Node) snapshotGrant() {
	board := n.d.board
	board.mu.Lock()
	n.grantNotices, n.grantBytes = board.missingForLocked(n.grantNotices[:0], n.seen, n.proc.ID())
	board.mu.Unlock()
}

// ReleaseLock releases lock id: the current interval closes (creating
// diffs and a write notice), the notice is posted to the manager, and a
// queued waiter (if any) is granted.
func (n *Node) ReleaseLock(id int) {
	cfg := n.proc.Config()
	d := n.d
	n.closeInterval()

	bytes := 0
	for _, nt := range n.newNotices {
		bytes += nt.WireBytes()
	}
	d.board.mu.Lock()
	d.board.postLocked(n.newNotices, &d.cluster.Mem)
	d.board.mu.Unlock()
	n.seen[n.proc.ID()] = n.vc[n.proc.ID()]
	n.newNotices = n.newNotices[:0]

	d.cluster.Stats.CountP(n.proc.ID(), "tmk.lock", cfg.Frags(bytes), cfg.WireBytes(bytes))
	// The release notification travels to the lock's static manager.
	freeAt := n.proc.Clock() + n.proc.Cluster().LinkLatencyUS(n.proc.ID(), id%cfg.Procs)
	n.proc.ReleaseResource(id, freeAt)
}
