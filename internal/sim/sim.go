// Package sim provides the simulated distributed-memory cluster on which
// the rest of the system runs: a set of processors (one goroutine each)
// connected by a message layer with a latency/bandwidth cost model, plus
// per-processor simulated clocks and cluster-wide traffic statistics.
//
// The paper's experiments run on an 8-processor IBM SP2; this package is
// the stand-in for that machine. Time is simulated, not measured:
// processors advance their local clocks by calibrated costs (compute,
// message latency, bandwidth, interrupt handling) and clocks are merged
// with Lamport-style max rules at messages and barriers.
//
// Determinism is a hard contract (DESIGN.md §7): every simulated time,
// message count, and byte count is bit-identical run to run, regardless
// of goroutine scheduling. Three mechanisms enforce it on top of the
// max/plus clock algebra:
//
//  1. Every message carries a total-order key (sentAt, from, seq) and
//     multi-sender mailboxes are drained in that order (RecvEach), not
//     in Go channel-arrival order.
//  2. Interrupt-service charges accumulate in per-caller shards and are
//     summed in processor-id order at read time, so the non-associative
//     float additions happen in a fixed order.
//  3. Contended resources (the TreadMarks lock managers) are granted by
//     a conservative arbiter that only decides at cluster quiescence —
//     when every processor is blocked, the set of waiting requests is
//     uniquely determined by the program, so picking the least
//     (key, proc) waiter is reproducible.
//
// Every simulated action belongs to one processor. Its blocking
// operations (RecvEach, a multi-processor barrier, AcquireResource) run
// on its own goroutine inside Cluster.Run and panic anywhere else,
// so the quiescence count sees every blocked goroutine, and traffic and
// lock statistics are kept per processor.
//
// Clocks, traffic and lock statistics only grow: nothing resets them.
// A measurement that leaves something out (data initialization, say)
// snapshots them where the measured phase starts and ends and takes the
// difference, as the apps.Episode window does inside its two barriers.
//
// The scheduler that enforces these rules is sharded (DESIGN.md §10):
// mailbox delivery takes only the target processor's shard lock,
// barriers their own lock, the arbiter its own, and quiescence is
// tracked by an atomic runnable counter plus a wake epoch rather than a
// global mutex. None of this changes any simulated number — the total
// orders, quiescent instants, and grant decisions are identical; only
// the wall-clock cost of reaching them shrinks.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Config describes the simulated machine. All costs are in microseconds
// (us) or bytes; defaults approximate a late-90s IBM SP2 thin node with
// the high-performance switch, which is what shapes the paper's numbers:
// message software overhead dominates, bandwidth is tens of MB/s, and a
// page fault / signal delivery costs tens of microseconds.
type Config struct {
	Procs int // number of simulated processors

	// Network model.
	LatencyUS   float64 // one-way per-message latency (software + wire)
	BytesPerUS  float64 // bandwidth in bytes per microsecond (B/us == MB/s)
	MsgHeaderB  int     // fixed per-message header bytes
	MaxMsgB     int     // fragmentation threshold: larger transfers count as multiple messages
	InterruptUS float64 // cost charged to a processor interrupted to service a request

	// Memory-management model.
	PageFaultUS  float64 // trap + handler dispatch for one protection violation
	TwinUSPerB   float64 // copying one byte when creating a twin
	DiffUSPerB   float64 // scanning one byte when creating a diff
	ApplyUSPerB  float64 // applying one diff byte to a page
	BarrierMgrUS float64 // barrier manager bookkeeping per arrival

	// Perturb, when non-nil, deterministically skews the uniform model:
	// per-proc CPU factors, per-link latency/bandwidth overrides, and
	// seeded per-message jitter (DESIGN.md §15). Nil — the default —
	// keeps the machine uniform and every simulated number byte-exactly
	// what the unperturbed code produced.
	Perturb *Perturb

	// Trace, when non-nil, records the cluster's simulated events
	// (sends, deliveries, lock wait/hold, barriers, memory charges) as
	// one trace episode (DESIGN.md §13). Nil — the default — keeps every
	// hot path allocation-free: each emit sits behind one nil check.
	Trace *obs.Trace
}

// DefaultConfig returns the SP2-like machine used throughout the
// reproduction. See DESIGN.md §2 for the calibration rationale.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:        procs,
		LatencyUS:    85,
		BytesPerUS:   40, // 40 MB/s
		MsgHeaderB:   32,
		MaxMsgB:      16384,
		InterruptUS:  45,
		PageFaultUS:  35,
		TwinUSPerB:   0.010,
		DiffUSPerB:   0.012,
		ApplyUSPerB:  0.008,
		BarrierMgrUS: 15,
	}
}

// Frags returns the number of wire messages an n-byte payload occupies.
// Each fragment carries its own MsgHeaderB-byte header, so the payload
// capacity of one wire message is MaxMsgB - MsgHeaderB. (The fragments
// pipeline, so latency is paid once; only the message and header counts
// multiply.)
func (c *Config) Frags(n int) int64 {
	if c.MaxMsgB <= 0 || c.MaxMsgB <= c.MsgHeaderB {
		return 1
	}
	payloadCap := c.MaxMsgB - c.MsgHeaderB
	f := int64((n + payloadCap - 1) / payloadCap)
	if f < 1 {
		f = 1
	}
	return f
}

// WireBytes returns the total bytes an n-byte payload occupies on the
// wire: the payload plus one header per fragment.
func (c *Config) WireBytes(n int) int64 {
	return int64(n) + c.Frags(n)*int64(c.MsgHeaderB)
}

// XferUS returns the time to move n payload bytes (plus per-fragment
// headers) across one link, excluding latency.
func (c *Config) XferUS(n int) float64 {
	return float64(c.WireBytes(n)) / c.BytesPerUS
}

// CatStat is the traffic within one category.
type CatStat struct {
	Messages int64
	Bytes    int64
}

// Stats accumulates cluster-wide message traffic, broken down by
// category. Categories are free-form strings chosen by the protocol
// layers (e.g. "diff.req", "barrier", "chaos.gather"). Counts land in
// the sending processor's shard and merge at read time, so the
// per-message hot path never touches a shared mutex.
type Stats struct {
	shards []shard[string, CatStat]
}

func (s *Stats) init(procs int) {
	s.shards = make([]shard[string, CatStat], procs)
}

// CountP records msgs messages totalling bytes payload bytes in category
// cat on processor proc's shard. It is the per-message hot path: shards
// are uncontended in steady state because a processor's traffic is
// counted by its own goroutine.
func (s *Stats) CountP(proc int, cat string, msgs, bytes int64) {
	sh := &s.shards[proc]
	sh.mu.Lock()
	cs := sh.cell(cat)
	cs.Messages += msgs
	cs.Bytes += bytes
	sh.mu.Unlock()
}

// Totals returns the total messages and bytes across all categories.
func (s *Stats) Totals() (msgs, bytes int64) {
	each(s.shards, func(_ int, cells map[string]*CatStat) {
		for _, cs := range cells {
			msgs += cs.Messages
			bytes += cs.Bytes
		}
	})
	return
}

// Categories returns a merged snapshot of per-category traffic.
func (s *Stats) Categories() map[string]CatStat {
	out := map[string]CatStat{}
	each(s.shards, func(_ int, cells map[string]*CatStat) {
		for k, v := range cells {
			cs := out[k]
			cs.Messages += v.Messages
			cs.Bytes += v.Bytes
			out[k] = cs
		}
	})
	return out
}

// String formats the statistics, one category per line, sorted.
func (s *Stats) String() string {
	cats := s.Categories()
	keys := make([]string, 0, len(cats))
	for k := range cats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%-16s %8d msgs %12d bytes\n", k, cats[k].Messages, cats[k].Bytes)
	}
	return out
}

// Handler services one request on the target processor. It is invoked
// "in interrupt context": the target's main thread keeps running, but is
// charged Config.InterruptUS plus the handler cost the handler reports.
// from is the requesting processor id; the returned respBytes is the
// payload size of the response, and handlerUS the compute time spent
// servicing the request.
type Handler func(from int, req any) (resp any, respBytes int, handlerUS float64)

// Cluster is a set of simulated processors sharing a network.
//
// Scheduler locking hierarchy (DESIGN.md §10). The blocking structures
// are sharded; locks nest strictly downward, never sideways or up:
//
//	Proc.mbMu (per-processor mailbox shard)  ─┐
//	Cluster.barMu (barrier episodes)          ├─> Cluster.arbMu (arbiter)
//	                                          │       └─> ledger shard
//	                                          └─────────> mutexes (leaf)
//
// That is: a goroutine holding a mailbox shard or the barrier lock may
// take arbMu (blockSelf → arbitrate); the arbiter may take ledger shard
// mutexes (SyncStats.recordGrant) and whatever leaf locks onGrant hooks
// take; nothing holding arbMu ever takes a mailbox shard or barMu.
//
// Blocked/runnable transitions go through the atomic runnable counter
// `active` plus the wake epoch `qgen` instead of a global mutex:
//
//   - A blocker publishes its wait state (mailbox waiting flag, barrier
//     slot, resource waiter) under the shard lock its waker takes, then
//     decrements active. The decrement that reaches zero runs the
//     arbiter; the waiter publication is visible to whichever goroutine
//     that is, because the chain of atomic RMWs on active carries the
//     happens-before edge from every earlier blocker.
//   - A waker increments qgen, then active, before its sleeper can
//     resume (it still holds the shard lock, or the grant channel is
//     not yet closed), so active never under-reports and quiescence is
//     never declared while a wake-up is in flight.
type Cluster struct {
	cfg   Config
	procs []*Proc
	Stats Stats
	Sync  SyncStats
	Mem   MemStats

	// trace is this cluster's trace episode, nil unless Config.Trace
	// was set. Every emit is guarded by a nil check (the disabled path
	// is allocation-free; see BenchmarkSendTraceDisabled). Lane-append
	// ordering discipline: a processor's own goroutine appends to its
	// lane in program order; the arbiter appends a grant record to a
	// *blocked* grantee's lane, ordered by the ready-channel handoff.
	trace *obs.Episode

	// barrierIDSeq feeds UniqueBarrierID (atomic).
	barrierIDSeq int64

	// active counts processors currently runnable inside Run (atomic).
	// qgen is bumped — before the matching active increment — on every
	// wake, so the arbiter can tell "continuously quiescent since I
	// looked" apart from "woke and re-quiesced behind my back".
	active int64
	qgen   uint64

	// arbMu guards the deterministic arbiter: the resources map, the
	// sorted grant-scan order, and all per-resource waiter state.
	arbMu     sync.Mutex
	resources map[int]*resource
	resIDs    []int // sorted resource ids: the grant scan order

	// barMu guards the barriers map and all episode state.
	barMu    sync.Mutex
	barriers map[int]*barrier

	// Perturbation tables (DESIGN.md §15), built once in NewCluster and
	// immutable afterwards, so the hot-path reads need no lock. lat and
	// bpu are dense from*n+to link tables; nil means the corresponding
	// dimension is uniform and the lookup falls back to cfg. jitterUS
	// == 0 disables per-message jitter entirely.
	lat        []float64
	bpu        []float64
	jitterUS   float64
	jitterSeed uint64
}

// NewCluster builds a cluster with cfg.Procs processors.
func NewCluster(cfg Config) *Cluster {
	if cfg.Procs <= 0 {
		panic("sim: cluster needs at least one processor")
	}
	c := &Cluster{cfg: cfg, barriers: map[int]*barrier{}, resources: map[int]*resource{}}
	if cfg.Trace != nil {
		c.trace = cfg.Trace.Episode(cfg.Procs)
	}
	c.Stats.init(cfg.Procs)
	c.Sync.init(cfg.Procs)
	c.Mem.init(cfg.Procs)
	c.Mem.attach(c)
	for i := 0; i < cfg.Procs; i++ {
		p := &Proc{
			id:       i,
			c:        c,
			cpuf:     1,
			intrBy:   make([]float64, cfg.Procs),
			handlers: map[string]Handler{},
		}
		p.mailboxes = map[mailboxKey]*mailbox{}
		p.resw.proc = i
		p.resw.ready = make(chan struct{}, 1)
		c.procs = append(c.procs, p)
	}
	c.buildPerturb(cfg.Perturb)
	return c
}

// NProcs returns the number of processors.
func (c *Cluster) NProcs() int { return len(c.procs) }

// Proc returns processor i.
func (c *Cluster) Proc(i int) *Proc { return c.procs[i] }

// Run executes body once per processor, each on its own goroutine, and
// waits for all of them to return. This is the SPMD entry point and the
// only place a processor may block.
func (c *Cluster) Run(body func(p *Proc)) {
	for _, p := range c.procs {
		p.running = true
	}
	atomic.AddUint64(&c.qgen, 1)
	atomic.AddInt64(&c.active, int64(len(c.procs)))

	var wg sync.WaitGroup
	for _, p := range c.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer func() {
				p.running = false
				if atomic.AddInt64(&c.active, -1) == 0 {
					c.arbitrate()
				}
				wg.Done()
			}()
			body(p)
		}(p)
	}
	wg.Wait()
}

// MaxTime returns the largest simulated time across processors (clock
// plus interrupt-service aggregate) — the simulated makespan.
func (c *Cluster) MaxTime() float64 {
	m := 0.0
	for _, p := range c.procs {
		if t := p.Time(); t > m {
			m = t
		}
	}
	return m
}

// mustBeRunning is every blocking operation's entry check, made before
// the caller takes a lock or publishes any wait state.
func (p *Proc) mustBeRunning() {
	if !p.running {
		panic(fmt.Sprintf("sim: processor %d blocks outside Cluster.Run", p.id))
	}
}

// blockSelf marks the calling processor blocked for quiescence
// accounting. The caller must have already published its wait state
// under the shard lock its waker takes — the mailbox waiting flag, the
// barrier slot, or the resource waiter — so the matching wake cannot be
// missed; blockSelf may be (and is) invoked while still holding that
// shard lock. The decrement that reaches zero runs the arbiter.
func (c *Cluster) blockSelf() {
	if atomic.AddInt64(&c.active, -1) == 0 {
		c.arbitrate()
	}
}

// unblock reverses a blockSelf. The waker calls it at signal time —
// before the blocked goroutine can resume — so the runnable count never
// under-reports and quiescence is never declared while a wake-up is in
// flight. The epoch bump precedes the increment: an arbiter that
// re-reads an unchanged qgen under arbMu knows no wake slipped in
// between its quiescence observation and its grants.
func (c *Cluster) unblock() {
	atomic.AddUint64(&c.qgen, 1)
	atomic.AddInt64(&c.active, 1)
}

// arbitrate runs the conservative arbiter if the cluster is quiescent.
// It is called by whichever goroutine's decrement brought the runnable
// count to zero. The epoch check makes the decision sound without a
// global scheduler lock: grants happen only when no wake occurred
// between observing active == 0 and holding arbMu. If a wake did slip
// in, the goroutine that re-quiesced the cluster owns a fresh arbitrate
// call of its own, so bowing out (or retrying with the fresh epoch)
// never strands a grantable waiter.
func (c *Cluster) arbitrate() {
	for {
		gen := atomic.LoadUint64(&c.qgen)
		if atomic.LoadInt64(&c.active) != 0 {
			return
		}
		c.arbMu.Lock()
		if atomic.LoadInt64(&c.active) == 0 && atomic.LoadUint64(&c.qgen) == gen {
			c.grantQuiescentLocked()
			c.arbMu.Unlock()
			return
		}
		c.arbMu.Unlock()
	}
}

// Proc is one simulated processor. Exactly one goroutine (the one given
// to Cluster.Run) plays the role of its CPU; request handlers run in
// interrupt context on behalf of other processors and only touch the
// clock through chargeInterrupt.
type Proc struct {
	id int
	c  *Cluster

	mu    sync.Mutex // protects clock and intrBy
	clock float64    // simulated local time, us
	// intrBy[q] is the interrupt-service time charged by calls from
	// processor q. A single caller issues its calls in program order, so
	// each shard's accumulation order is deterministic; Time sums the
	// shards in id order, fixing the order of the non-associative float
	// additions across callers.
	intrBy []float64

	hmu      sync.RWMutex
	handlers map[string]Handler

	// mbMu is this processor's mailbox shard lock: it guards the
	// mailboxes map and every queue in it. A sender takes only the
	// *target's* shard, so deliveries to different processors never
	// contend (DESIGN.md §10).
	mbMu      sync.Mutex
	mailboxes map[mailboxKey]*mailbox // guarded by mbMu
	mbFree    []*mailbox              // guarded by mbMu: drained mailboxes for reuse
	sendSeq   int64                   // owner-goroutine only: per-sender message sequence
	drainBuf  []envelope              // owner-goroutine only: reused by drain
	callBuf   []any                   // owner-goroutine only: CallMulti's result slice, reused

	// cpuf is the processor's CPU speed factor (§15): every compute
	// charge is multiplied by it. 1 for unperturbed clusters — and
	// x*1.0 == x bit-exactly, so the multiplication never changes an
	// unperturbed number. Set once in NewCluster, read-only afterwards.
	cpuf float64

	// resw is the processor's reusable arbiter waiter: a processor has at
	// most one resource acquire in flight (AcquireResource blocks), so the
	// waiter and its one-token grant channel are allocated once. inflight
	// guards the invariant.
	resw     resWaiter
	inflight atomic.Bool
	// running reports whether the processor is inside Cluster.Run. It is
	// written by Run before the goroutines launch (published by the go
	// statement) and cleared by the processor's own goroutine at exit;
	// mustBeRunning reads it on that goroutine, so it needs no lock.
	running bool
}

// envelope is one in-flight message. (sentAt, from, seq) is its total
// order key: primary by simulated send time, ties broken by sender id,
// then by the sender's per-message sequence number (two sends by one
// sender always have increasing seq).
type envelope struct {
	from    int
	seq     int64
	sentAt  float64
	payload any
	bytes   int
}

// compareEnvelopes is the single definition of the mailbox total order,
// as the three-way comparison the drain sort wants. Keys are unique —
// one sender's seq strictly increases — so the zero case only occurs
// for an envelope against itself.
func compareEnvelopes(e, o envelope) int {
	switch {
	case e.sentAt != o.sentAt:
		if e.sentAt < o.sentAt {
			return -1
		}
		return 1
	case e.from != o.from:
		return e.from - o.from
	case e.seq != o.seq:
		if e.seq < o.seq {
			return -1
		}
		return 1
	}
	return 0
}

// mailboxKey identifies a mailbox without allocating a composite
// string; lookups happen inside the target shard's critical section on
// every send and receive, so they must stay cheap.
type mailboxKey struct {
	kind string
	tag  int
}

// mailbox is the per-(kind, tag) receive queue. Pending messages are
// kept unsorted (arrival order) and sorted by the total-order key at
// drain time.
type mailbox struct {
	cond    *sync.Cond // on the owning processor's mbMu
	msgs    []envelope
	waiting bool // the owning processor is blocked on this mailbox
}

// ID returns the processor id in [0, NProcs).
func (p *Proc) ID() int { return p.id }

// Cluster returns the owning cluster.
func (p *Proc) Cluster() *Cluster { return p.c }

// NProcs returns the cluster size.
func (p *Proc) NProcs() int { return len(p.c.procs) }

// Config returns the machine description.
func (p *Proc) Config() *Config { return &p.c.cfg }

// Clock returns the current simulated local time in microseconds.
func (p *Proc) Clock() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clock
}

// Advance charges dt microseconds of local computation, scaled by the
// processor's CPU factor (1.0 unless Config.Perturb names it).
func (p *Proc) Advance(dt float64) {
	if dt < 0 {
		panic("sim: negative time advance")
	}
	dt *= p.cpuf
	p.mu.Lock()
	p.clock += dt
	p.mu.Unlock()
}

// clockThenAdvance returns the current clock and then charges dt of
// local compute (scaled by the CPU factor), in one critical section
// (the Send hot path reads the send timestamp and pays the injection
// overhead back to back).
func (p *Proc) clockThenAdvance(dt float64) float64 {
	dt *= p.cpuf
	p.mu.Lock()
	t := p.clock
	p.clock += dt
	p.mu.Unlock()
	return t
}

// AdvanceTo moves the clock forward to at least t (message causality).
// Protocol layers use it when they model an exchange's timing manually.
func (p *Proc) AdvanceTo(t float64) {
	p.mu.Lock()
	if t > p.clock {
		p.clock = t
	}
	p.mu.Unlock()
}

// chargeInterrupt records the cost of being interrupted to service a
// remote request from processor `from`. The charge accumulates in a
// per-caller side counter rather than the clock itself: folding it into
// the clock mid-run would make the target's barrier-arrival times depend
// on the real-time interleaving of handler execution, destroying
// determinism, and even a single side counter would sum the charges in
// arrival order (float addition is not associative). Instead the
// aggregate is added to the processor's final time (Time,
// Cluster.MaxTime) by summing the per-caller shards in id order. This
// uniformly under-weights queueing effects for all systems compared,
// which preserves the relative shapes the reproduction targets.
func (p *Proc) chargeInterrupt(from int, us float64) {
	p.mu.Lock()
	p.intrBy[from] += us
	p.mu.Unlock()
}

func (p *Proc) intrLocked() float64 {
	s := 0.0
	for _, v := range p.intrBy {
		s += v
	}
	return s
}

// Time returns the processor's total simulated time including the
// interrupt-service aggregate.
func (p *Proc) Time() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clock + p.intrLocked()
}

// RegisterHandler installs the service routine for request kind. The
// protocol layers call this during setup, before Cluster.Run.
func (p *Proc) RegisterHandler(kind string, h Handler) {
	p.hmu.Lock()
	p.handlers[kind] = h
	p.hmu.Unlock()
}

// CallSpec names one request in a parallel request fan-out.
type CallSpec struct {
	Target   int
	Kind     string
	Req      any
	ReqBytes int
}

// CallMulti issues several request/response exchanges (two messages
// each, stat category Kind) concurrently: the aggregated prefetch
// pattern, one exchange per remote processor, all overlapped. The
// caller's clock advances by the maximum round-trip time among the
// requests, handler time included, not the sum. Responses are returned
// in request order, in a slice the processor's next CallMulti overwrites.
//
// Perturbation (§15): each leg is priced on its directed link, the
// handler and interrupt costs scale with the target's CPU factor, and
// — when jitter is enabled — each exchange draws one deterministic
// delay keyed by the caller's next sequence number (CallMulti runs on
// the caller's own goroutine, so the draw order is program order).
func (p *Proc) CallMulti(specs []CallSpec) []any {
	cfg := &p.c.cfg
	c := p.c
	t0 := p.Clock()
	resps := slices.Grow(p.callBuf[:0], len(specs))[:len(specs)] // every entry is assigned below
	p.callBuf = resps
	done := t0
	for i, s := range specs {
		if s.Target == p.id {
			panic("sim: self-call")
		}
		tgt := c.procs[s.Target]
		tgt.hmu.RLock()
		h := tgt.handlers[s.Kind]
		tgt.hmu.RUnlock()
		if h == nil {
			panic(fmt.Sprintf("sim: proc %d has no handler for %q", s.Target, s.Kind))
		}
		resp, respBytes, handlerUS := h(p.id, s.Req)
		tgt.chargeInterrupt(p.id, (cfg.InterruptUS+handlerUS)*tgt.cpuf)
		rtt := c.LinkLatencyUS(p.id, s.Target) + c.LinkXferUS(p.id, s.Target, s.ReqBytes) + // request
			handlerUS*tgt.cpuf +
			c.LinkLatencyUS(s.Target, p.id) + c.LinkXferUS(s.Target, p.id, respBytes) // response
		if c.jitterUS != 0 {
			p.sendSeq++
			rtt += c.jitterFor(p.id, p.sendSeq)
		}
		if t0+rtt > done {
			done = t0 + rtt
		}
		if tr := p.c.trace; tr != nil {
			tr.Span(p.id, "call "+s.Kind, t0, t0+rtt,
				cfg.WireBytes(s.ReqBytes)+cfg.WireBytes(respBytes))
		}
		p.c.Stats.CountP(p.id, s.Kind, cfg.Frags(s.ReqBytes)+cfg.Frags(respBytes),
			cfg.WireBytes(s.ReqBytes)+cfg.WireBytes(respBytes))
		resps[i] = resp
	}
	p.AdvanceTo(done)
	return resps
}

// Send delivers a one-way message to target's mailbox for (kind, tag)
// (the CHAOS executor push pattern: one message, no response). The tag
// separates communication phases so a fast peer's next-phase message is
// never consumed by the current phase; traffic is counted under kind
// alone. The sender's clock is charged only the injection overhead; the
// receiver pays latency + transfer when it drains the message with
// RecvEach. Send must be called by the processor's own goroutine.
func (p *Proc) Send(target int, kind string, tag int, payload any, bytes int) {
	cfg := &p.c.cfg
	c := p.c
	if target == p.id {
		panic("sim: self-send")
	}
	// Injection software overhead on the sender, priced on the directed
	// link (and CPU-scaled inside clockThenAdvance); the message's send
	// time is the clock before that charge.
	sentAt := p.clockThenAdvance(c.LinkXferUS(p.id, target, bytes) / 2)
	p.sendSeq++
	env := envelope{from: p.id, seq: p.sendSeq, sentAt: sentAt, payload: payload, bytes: bytes}

	if tr := c.trace; tr != nil {
		tr.Send(p.id, target, kind, sentAt, c.cfg.WireBytes(bytes))
	}
	tgt := c.procs[target]
	tgt.mbMu.Lock()
	mb := tgt.mailboxLocked(kind, tag)
	mb.msgs = append(mb.msgs, env)
	if mb.waiting {
		mb.waiting = false
		c.unblock()
		mb.cond.Broadcast()
	}
	tgt.mbMu.Unlock()

	c.Stats.CountP(p.id, kind, cfg.Frags(bytes), cfg.WireBytes(bytes))
}

// RecvEach blocks until n messages of the given kind and tag have
// arrived, then processes them in the total order (sentAt, from, seq) —
// not in arrival order: for each message the sender's causal time is
// merged into the local clock and fn (if non-nil) is invoked. fn may
// charge per-message unpack costs with Advance; because the drain order
// is the total order, the resulting max/plus interleave is identical
// every run. It is the only receive: the CHAOS executor and the
// schedule exchange drain a phase's n senders, and a one-message
// hand-off is RecvEach(kind, tag, 1, fn).
//
// n must cover every message the phase's senders put into (kind, tag):
// a partial drain selects the n least-keyed messages *present*, which
// depends on real arrival order and would break determinism.
func (p *Proc) RecvEach(kind string, tag int, n int, fn func(from int, payload any)) {
	if n <= 0 {
		return
	}
	cfg := &p.c.cfg
	tr := p.c.trace
	envs := p.drain(kind, tag, n)
	for _, env := range envs {
		arrival := p.c.arrivalUS(env, p.id)
		if tr != nil {
			tr.Deliver(p.id, env.from, kind, arrival, cfg.WireBytes(env.bytes))
		}
		p.AdvanceTo(arrival)
		if fn != nil {
			fn(env.from, env.payload)
		}
	}
	p.reclaimDrainBuf(envs)
}

// drain removes and returns the n least-keyed messages of (kind, tag),
// blocking until at least n are present. The wait-state publication and
// the runnable-count decrement happen under p.mbMu — the same lock a
// sender takes to deliver — so the paired wake can neither be missed
// nor run before the decrement (blockSelf may arbitrate while mbMu is
// held; the grant path never takes a mailbox shard, so that nesting is
// safe).
func (p *Proc) drain(kind string, tag int, n int) []envelope {
	p.mustBeRunning()
	p.mbMu.Lock()
	mb := p.mailboxLocked(kind, tag)
	for len(mb.msgs) < n {
		mb.waiting = true
		p.c.blockSelf()
		mb.cond.Wait()
	}
	if len(mb.msgs) > 1 {
		slices.SortFunc(mb.msgs, compareEnvelopes)
	}
	// The result buffer is checked out of the per-proc scratch slot and
	// returned by the caller via reclaimDrainBuf once the envelopes are
	// consumed. The nil-swap makes a nested receive (a RecvEach callback
	// that itself receives) allocate its own buffer instead of silently
	// corrupting the one still being iterated.
	buf := p.drainBuf
	p.drainBuf = nil
	if cap(buf) < n {
		buf = make([]envelope, n)
	}
	out := buf[:n]
	copy(out, mb.msgs[:n])
	// Shift the remainder down in place and zero the vacated tail so the
	// retained capacity does not pin delivered payloads.
	m := copy(mb.msgs, mb.msgs[n:])
	for i := m; i < len(mb.msgs); i++ {
		mb.msgs[i] = envelope{}
	}
	mb.msgs = mb.msgs[:m]
	if m == 0 {
		// Phase tags are typically unique per episode (the CHAOS executor
		// tags exchanges with the time step), so a drained mailbox is
		// usually dead: recycle it — object, cond, and message capacity —
		// instead of leaking one map entry per phase. drain is owner-only,
		// so nobody can be waiting on the mailbox we just emptied.
		delete(p.mailboxes, mailboxKey{kind: kind, tag: tag})
		p.mbFree = append(p.mbFree, mb)
	}
	p.mbMu.Unlock()
	return out
}

// reclaimDrainBuf returns a consumed drain result to the scratch slot,
// dropping payload references so the buffer does not pin delivered
// messages until the next receive.
func (p *Proc) reclaimDrainBuf(envs []envelope) {
	for i := range envs {
		envs[i] = envelope{}
	}
	p.drainBuf = envs
}

// mailboxLocked returns the mailbox for (kind, tag), creating it if
// needed. The processor's mbMu must be held.
func (p *Proc) mailboxLocked(kind string, tag int) *mailbox {
	key := mailboxKey{kind: kind, tag: tag}
	mb := p.mailboxes[key]
	if mb == nil {
		if n := len(p.mbFree); n > 0 {
			mb = p.mbFree[n-1]
			p.mbFree[n-1] = nil
			p.mbFree = p.mbFree[:n-1]
		} else {
			mb = &mailbox{cond: sync.NewCond(&p.mbMu)}
		}
		p.mailboxes[key] = mb
	}
	return mb
}

// resource is one deterministically arbitrated exclusive resource (the
// TreadMarks lock managers are built on it). lastVal is an opaque value
// the releaser leaves for the next grantee — the protocol layer stores
// the simulated time the resource became free. All fields are guarded
// by Cluster.arbMu.
type resource struct {
	held    bool
	lastVal float64
	waiters []*resWaiter

	// Grant bookkeeping for SyncStats: who holds the resource and the
	// simulated instant it was granted (max of request key and the time
	// the previous holder freed it).
	holder  int
	grantAt float64
}

type resWaiter struct {
	key      float64
	proc     int
	grantVal float64
	onGrant  func()
	// ready receives one token at the grant instant — after every onGrant
	// hook of that quiescent instant has run, so no grantee resumes while
	// another grant's conservative snapshot is still being taken. The
	// send publishes grantVal to the waiter. The channel has capacity one
	// and is reused across acquires (at most one is in flight per Proc).
	ready chan struct{}
}

// resourceLocked returns the resource for id, creating it if needed and
// keeping the sorted grant-scan order current. arbMu must be held.
func (c *Cluster) resourceLocked(id int) *resource {
	r := c.resources[id]
	if r == nil {
		r = &resource{}
		c.resources[id] = r
		i := sort.SearchInts(c.resIDs, id)
		c.resIDs = append(c.resIDs, 0)
		copy(c.resIDs[i+1:], c.resIDs[i:])
		c.resIDs[i] = id
	}
	return r
}

// AcquireResource blocks until the cluster's deterministic arbiter
// grants resource res to this processor, and returns the value the
// previous holder passed to ReleaseResource (zero if never held).
//
// key is the request's simulated arrival time at the manager; grants go
// to the least (key, proc) waiter. The arbiter decides only at cluster
// quiescence — when every processor is blocked (in a receive,
// a barrier, a resource acquire, or finished). At that instant no new
// request can appear until a grant wakes someone, and the waiting set
// itself is uniquely determined by the program (each processor ran
// deterministically until it blocked), so the chosen grantee — and hence
// every downstream simulated time — is identical run to run.
//
// onGrant, if non-nil, runs at the grant instant under the scheduler
// lock. Because the cluster is quiescent there, any shared protocol
// state it reads (e.g. the write-notice board) has deterministic
// content; this is the "conservative snapshot" hook the TreadMarks lock
// grant uses to pick up the notices the acquirer lacks. onGrant must not
// call back into blocking simulator operations.
func (p *Proc) AcquireResource(res int, key float64, onGrant func()) float64 {
	p.mustBeRunning()
	c := p.c
	if !p.inflight.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("sim: concurrent AcquireResource on processor %d", p.id))
	}
	w := &p.resw
	w.key = key
	w.onGrant = onGrant
	c.arbMu.Lock()
	r := c.resourceLocked(res)
	r.waiters = append(r.waiters, w)
	c.arbMu.Unlock()
	// The waiter is published before the runnable count drops, so the
	// decrement that reaches zero — ours, or a later blocker's, which is
	// ordered after ours through the counter's RMW chain — always finds
	// this request when it arbitrates. While we are still counted, no
	// other decrement can reach zero, so no grant can race the append.
	c.blockSelf()
	<-w.ready
	p.inflight.Store(false)
	return w.grantVal
}

// ReleaseResource marks res free and records val for the next grantee.
// The grant itself happens at the next quiescent instant: the releaser
// is runnable, so the last processor to block runs the arbiter.
func (p *Proc) ReleaseResource(res int, val float64) {
	c := p.c
	c.arbMu.Lock()
	r := c.resourceLocked(res)
	if !r.held {
		c.arbMu.Unlock()
		panic(fmt.Sprintf("sim: release of resource %d that is not held", res))
	}
	r.held = false
	r.lastVal = val
	c.Sync.recordRelease(r.holder, res, val-r.grantAt)
	if tr := c.trace; tr != nil {
		// The releaser is the holder's own goroutine, so this is a
		// program-order append to its own lane.
		tr.LockHold(r.holder, res, r.grantAt, val)
	}
	c.arbMu.Unlock()
}

// grantQuiescentLocked performs the deterministic arbitration: at
// cluster quiescence, every free resource with waiters is granted to
// its least (key, proc) waiter. arbMu must be held and the cluster
// verified quiescent (arbitrate's epoch check).
//
// Grants are two-phase: phase one decides every grant of this quiescent
// instant and runs its onGrant hook; phase two re-counts the grantees
// runnable and closes their ready channels. No grantee can resume until
// phase two, so every conservative snapshot an onGrant hook takes still
// sees the cluster exactly as it was at the quiescent instant — with
// the old global lock this fell out of cond.Wait needing the lock back;
// here it must be explicit.
func (c *Cluster) grantQuiescentLocked() {
	var buf [4]*resWaiter
	granted := buf[:0]
	for _, id := range c.resIDs {
		r := c.resources[id]
		if r.held || len(r.waiters) == 0 {
			continue
		}
		best := 0
		for i, w := range r.waiters {
			b := r.waiters[best]
			if w.key < b.key || (w.key == b.key && w.proc < b.proc) {
				best = i
			}
		}
		w := r.waiters[best]
		r.waiters = append(r.waiters[:best], r.waiters[best+1:]...)
		r.held = true
		w.grantVal = r.lastVal
		r.holder = w.proc
		r.grantAt = w.key
		if r.lastVal > r.grantAt {
			r.grantAt = r.lastVal
		}
		c.Sync.recordGrant(w.proc, id, r.grantAt-w.key)
		if tr := c.trace; tr != nil {
			// Appended to the grantee's lane while the grantee is parked
			// on its ready channel; the phase-two token send below orders
			// this append before any later owner-goroutine append.
			tr.LockWait(w.proc, id, w.key, r.grantAt)
		}
		if w.onGrant != nil {
			w.onGrant()
		}
		granted = append(granted, w)
	}
	for _, w := range granted {
		c.unblock()
		w.ready <- struct{}{}
	}
}

// CombineFunc merges the per-processor barrier contributions (indexed by
// processor id) into per-processor replies and their payload sizes. It
// runs once per barrier episode, on the manager, and its cost in
// microseconds is the third return value. contrib is the barrier's own
// arrival slot list, valid only during the call: a combine may keep the
// elements but not the slice. Each processor reads its reply and size
// before it can arrive at a later barrier, so a combine may return the
// same two slices every episode.
type CombineFunc func(contrib []any) (replies []any, replyBytes []int, combineUS float64)

type barrier struct {
	cond        *sync.Cond // on Cluster.barMu
	gen         int64
	waiting     int
	contrib     []any
	arrive      []float64
	replies     []any
	rbytesStash []int
	release     float64
}

// barrierLocked returns the barrier for id, creating it if needed.
// barMu must be held.
func (c *Cluster) barrierLocked(id int) *barrier {
	b := c.barriers[id]
	if b == nil {
		n := len(c.procs)
		b = &barrier{contrib: make([]any, n), arrive: make([]float64, n)}
		b.cond = sync.NewCond(&c.barMu)
		c.barriers[id] = b
	}
	return b
}

// BarrierExchange implements the centralized barrier of TreadMarks (the
// manager is processor 0): each arrival sends one message to the
// manager carrying `data` (`bytes` payload bytes); when the last
// processor arrives, `combine` merges the contributions; each processor
// then receives one release message carrying its reply. Message count is
// 2*(N-1) per episode plus payload bytes, charged to category "barrier".
// The returned value is this processor's reply (nil if combine is nil).
//
// Barrier arrivals are inherently order-insensitive: the release time is
// a max over the arrival array and combine sees contributions indexed by
// processor id, so the episode is deterministic no matter which
// goroutine arrives last.
// A one-processor barrier never blocks and may run outside Cluster.Run.
func (p *Proc) BarrierExchange(id int, data any, bytes int, combine CombineFunc) any {
	cfg := &p.c.cfg
	n := len(p.c.procs)
	if n == 1 {
		if combine != nil {
			replies, _, us := combine([]any{data})
			p.Advance(us)
			if len(replies) > 0 {
				return replies[0]
			}
		}
		return nil
	}

	p.mustBeRunning()
	arriveAt := p.Clock()
	if p.id != 0 {
		// Arrival message to the manager, priced on the p.id -> 0 link.
		arriveAt += p.c.LinkLatencyUS(p.id, 0) + p.c.LinkXferUS(p.id, 0, bytes)
		p.c.Stats.CountP(p.id, "barrier", cfg.Frags(bytes), cfg.WireBytes(bytes))
	}

	c := p.c
	c.barMu.Lock()
	b := c.barrierLocked(id)
	gen := b.gen
	b.contrib[p.id] = data
	b.arrive[p.id] = arriveAt
	b.waiting++
	if b.waiting == n {
		// Last arriver: run the manager logic. The manager's own
		// processor is proc 0 conceptually, but since clocks only merge
		// through max rules the release time is identical no matter
		// which goroutine computes it.
		last := 0.0
		for _, t := range b.arrive {
			if t > last {
				last = t
			}
		}
		var replies []any
		var rbytes []int
		combineUS := 0.0
		if combine != nil {
			replies, rbytes, combineUS = combine(b.contrib)
		}
		// Manager bookkeeping and the combine both run on proc 0's CPU,
		// so both scale with its speed factor (a factor of exactly 1.0
		// keeps every term bit-identical to the unperturbed model).
		mgrf := c.procs[0].cpuf
		release := last + float64(n)*cfg.BarrierMgrUS*mgrf + combineUS*mgrf
		b.replies = replies
		b.release = release
		for i := 1; i < n; i++ {
			rb := 0
			if rbytes != nil {
				rb = rbytes[i]
			}
			p.c.Stats.CountP(p.id, "barrier", cfg.Frags(rb), cfg.WireBytes(rb))
		}
		b.rbytesStash = rbytes
		b.waiting = 0
		b.gen++
		// Bulk wake: the n-1 others all called blockSelf under barMu, so
		// one epoch bump re-counts them (the last arriver is runnable, so
		// no arbitration can be concluding).
		atomic.AddUint64(&c.qgen, 1)
		atomic.AddInt64(&c.active, int64(n-1))
		b.cond.Broadcast()
	} else {
		c.blockSelf()
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	release := b.release
	var reply any
	rb := 0
	if b.replies != nil {
		reply = b.replies[p.id]
	}
	if b.rbytesStash != nil {
		rb = b.rbytesStash[p.id]
	}
	c.barMu.Unlock()

	depart := release
	if p.id != 0 {
		// Release message back from the manager, on the 0 -> p.id link.
		depart += c.LinkLatencyUS(0, p.id) + c.LinkXferUS(0, p.id, rb)
	}
	if tr := c.trace; tr != nil {
		tr.Barrier(p.id, id, arriveAt, depart)
	}
	p.AdvanceTo(depart)
	return reply
}

// TraceSpan records a protocol-level annotation interval on this
// processor's trace lane (no-op when the cluster is untraced). It must
// be called by the processor's own goroutine, with simulated instants.
func (p *Proc) TraceSpan(name string, startUS, endUS float64, bytes int64) {
	if tr := p.c.trace; tr != nil {
		tr.Span(p.id, name, startUS, endUS, bytes)
	}
}

// TraceMark records a protocol-level instant annotation on this
// processor's trace lane (no-op when the cluster is untraced). It must
// be called by the processor's own goroutine.
func (p *Proc) TraceMark(name string, tsUS float64, bytes int64) {
	if tr := p.c.trace; tr != nil {
		tr.Mark(p.id, name, tsUS, bytes)
	}
}

// UniqueBarrierID returns an id distinct from every previous call on
// this cluster, offset past the application id space, for callers that
// need private barrier episodes (e.g. the measurement window). The
// counter is per-cluster, not process-global, so the ids — which the
// trace records — are a pure function of the run, not of how many
// clusters the process happened to build earlier.
func (c *Cluster) UniqueBarrierID() int {
	return int(atomic.AddInt64(&c.barrierIDSeq, 1)) + 1<<20
}
