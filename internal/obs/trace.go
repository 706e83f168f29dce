// The deterministic trace recorder (DESIGN.md §13): Chrome trace-event
// JSON keyed by *simulated* microseconds, one process per cluster
// episode and one thread lane per simulated processor, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Determinism. Every recorded timestamp is a simulated instant — a
// pure function of the request under the §7/§10 contracts — so the
// rendered trace can be byte-diffed like any other number in the repo.
// Two mechanisms make the *bytes* (not just the values) reproducible:
//
//  1. Events append to per-processor shards, each in a deterministic
//     order: a processor's own goroutine appends to its lane in program
//     order, and the only foreign writer — the quiescence arbiter,
//     which records a lock grant into the *blocked* grantee's lane —
//     is ordered against the owner by the grant channel handoff (the
//     owner is parked until the arbiter's token arrives).
//  2. JSON() merges the shards by the total key (ts, proc, shard
//     sequence), renders floats with shortest-round-trip formatting,
//     and emits one event per line in a fixed argument order.
//
// The recorder is allocation-free when disabled: the simulator guards
// every emit behind a single nil check (BenchmarkSendTraceDisabled
// asserts 0 allocs/op on the Send hot path).
package obs

import (
	"bytes"
	"sort"
	"strconv"
	"sync"
)

// event kinds (the wire format is fixed; see render).
const (
	evSend = iota
	evDeliver
	evLockWait
	evLockHold
	evBarrier
	evMem
	evSpan
	evMark
)

// traceEvent is one recorded simulated event. name holds the message
// kind (send/deliver), the memory category (mem), or the annotation
// name (span/mark); ref holds the peer processor (send/deliver) or the
// resource/barrier id.
type traceEvent struct {
	kind  uint8
	ref   int
	ts    float64 // simulated us
	dur   float64 // simulated us (complete events only)
	bytes int64
	name  string
}

// laneShard is one processor's event lane. Appends are serialized by
// the simulator's own ordering discipline (see the package comment);
// no lock is needed or taken.
type laneShard struct {
	events []traceEvent
}

// Episode is the trace of one simulated cluster run: one Perfetto
// process, one thread lane per processor. Emit methods silently drop
// events for out-of-range processors (the global mem shard, proc -1,
// has no deterministic lane — see DESIGN.md §13).
type Episode struct {
	pid    int
	label  string
	shards []laneShard
}

// Trace collects the episodes of one traced run (a bench experiment
// traces every parallel cluster it builds, labeled by run phase).
type Trace struct {
	mu      sync.Mutex
	phase   string
	inPhase int // episodes created under the current phase label
	eps     []*Episode
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// SetPhase labels episodes created from now on (e.g. "moldyn/Every 20
// iterations"); the per-phase episode ordinal restarts at zero.
func (t *Trace) SetPhase(label string) {
	t.mu.Lock()
	t.phase = label
	t.inPhase = 0
	t.mu.Unlock()
}

// Episode opens a new episode with procs lanes. The simulator calls
// this from NewCluster when a Trace is plumbed into its Config.
func (t *Trace) Episode(procs int) *Episode {
	t.mu.Lock()
	defer t.mu.Unlock()
	label := t.phase
	if label == "" {
		label = "episode"
	}
	label += " #" + strconv.Itoa(t.inPhase)
	t.inPhase++
	ep := &Episode{pid: len(t.eps), label: label, shards: make([]laneShard, procs)}
	t.eps = append(t.eps, ep)
	return ep
}

func (e *Episode) emit(proc int, ev traceEvent) {
	if proc < 0 || proc >= len(e.shards) {
		return
	}
	sh := &e.shards[proc]
	sh.events = append(sh.events, ev)
}

// Send records a one-way message injection on the sender's lane at the
// simulated send instant.
func (e *Episode) Send(proc, to int, kind string, ts float64, bytes int64) {
	e.emit(proc, traceEvent{kind: evSend, ref: to, ts: ts, bytes: bytes, name: kind})
}

// Deliver records a message consumption on the receiver's lane at the
// simulated arrival instant.
func (e *Episode) Deliver(proc, from int, kind string, ts float64, bytes int64) {
	e.emit(proc, traceEvent{kind: evDeliver, ref: from, ts: ts, bytes: bytes, name: kind})
}

// LockWait records the interval between a lock request's simulated
// arrival at the manager and its grant, on the grantee's lane.
func (e *Episode) LockWait(proc, res int, reqAt, grantAt float64) {
	e.emit(proc, traceEvent{kind: evLockWait, ref: res, ts: reqAt, dur: clampDur(grantAt - reqAt)})
}

// LockHold records the grant-to-release interval on the holder's lane.
func (e *Episode) LockHold(proc, res int, grantAt, freeAt float64) {
	e.emit(proc, traceEvent{kind: evLockHold, ref: res, ts: grantAt, dur: clampDur(freeAt - grantAt)})
}

// Barrier records one barrier episode on the processor's lane: arrival
// (message departure toward the manager) to release-message receipt.
func (e *Episode) Barrier(proc, id int, arriveAt, departAt float64) {
	e.emit(proc, traceEvent{kind: evBarrier, ref: id, ts: arriveAt, dur: clampDur(departAt - arriveAt)})
}

// MemCounter records the processor's current simulated bytes in one
// category (a Perfetto counter track per (proc, category)).
func (e *Episode) MemCounter(proc int, cat string, ts float64, curBytes int64) {
	e.emit(proc, traceEvent{kind: evMem, ts: ts, bytes: curBytes, name: cat})
}

// Span records a protocol-level annotation interval (e.g. the CHAOS
// inspector phase) on the processor's lane.
func (e *Episode) Span(proc int, name string, start, end float64, bytes int64) {
	e.emit(proc, traceEvent{kind: evSpan, ts: start, dur: clampDur(end - start), bytes: bytes, name: name})
}

// Mark records a protocol-level instant annotation (e.g. the notice
// freight a TreadMarks lock grant carried).
func (e *Episode) Mark(proc int, name string, ts float64, bytes int64) {
	e.emit(proc, traceEvent{kind: evMark, ts: ts, bytes: bytes, name: name})
}

func clampDur(d float64) float64 {
	if d < 0 {
		return 0
	}
	return d
}

// JSON renders the whole trace as Chrome trace-event JSON: one event
// per line, metadata first, then each episode's events merged across
// lanes by (ts, proc, lane sequence). The bytes are a pure function of
// the recorded events.
func (t *Trace) JSON() []byte {
	t.mu.Lock()
	eps := append([]*Episode(nil), t.eps...)
	t.mu.Unlock()

	var b bytes.Buffer
	b.WriteString("{\"traceEvents\":[")
	first := true
	sep := func() {
		if first {
			b.WriteString("\n")
			first = false
		} else {
			b.WriteString(",\n")
		}
	}
	for _, ep := range eps {
		// Metadata: process (episode) and thread (processor lane) names.
		sep()
		b.WriteString(`{"ph":"M","pid":`)
		writeInt(&b, ep.pid)
		b.WriteString(`,"tid":0,"name":"process_name","args":{"name":"`)
		writeEscaped(&b, ep.label)
		b.WriteString(`"}}`)
		for proc := range ep.shards {
			sep()
			b.WriteString(`{"ph":"M","pid":`)
			writeInt(&b, ep.pid)
			b.WriteString(`,"tid":`)
			writeInt(&b, proc)
			b.WriteString(`,"name":"thread_name","args":{"name":"proc `)
			writeInt(&b, proc)
			b.WriteString(`"}}`)
		}
		for _, ref := range ep.sortedRefs() {
			sep()
			ep.render(&b, ref)
		}
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}

// eventRef addresses one event inside an episode for the global merge.
type eventRef struct {
	proc, idx int
}

// sortedRefs merges the episode's lanes into the canonical render
// order: ascending simulated time, ties by (proc, lane sequence) —
// a total key, because one lane's events have unique indices.
func (e *Episode) sortedRefs() []eventRef {
	total := 0
	for i := range e.shards {
		total += len(e.shards[i].events)
	}
	refs := make([]eventRef, 0, total)
	for p := range e.shards {
		for i := range e.shards[p].events {
			refs = append(refs, eventRef{proc: p, idx: i})
		}
	}
	sort.SliceStable(refs, func(a, b int) bool {
		ea := e.shards[refs[a].proc].events[refs[a].idx]
		eb := e.shards[refs[b].proc].events[refs[b].idx]
		if ea.ts != eb.ts {
			return ea.ts < eb.ts
		}
		if refs[a].proc != refs[b].proc {
			return refs[a].proc < refs[b].proc
		}
		return refs[a].idx < refs[b].idx
	})
	return refs
}

// render writes one event as a single JSON object in a fixed field and
// argument order.
func (e *Episode) render(b *bytes.Buffer, ref eventRef) {
	ev := e.shards[ref.proc].events[ref.idx]
	head := func(ph, name, cat string) {
		b.WriteString(`{"ph":"`)
		b.WriteString(ph)
		b.WriteString(`","pid":`)
		writeInt(b, e.pid)
		b.WriteString(`,"tid":`)
		writeInt(b, ref.proc)
		b.WriteString(`,"ts":`)
		writeFloat(b, ev.ts)
		if ph == "X" {
			b.WriteString(`,"dur":`)
			writeFloat(b, ev.dur)
		}
		b.WriteString(`,"name":"`)
		writeEscaped(b, name)
		b.WriteString(`","cat":"`)
		b.WriteString(cat)
		b.WriteString(`"`)
	}
	switch ev.kind {
	case evSend:
		head("i", "send "+ev.name, "send")
		b.WriteString(`,"s":"t","args":{"to":`)
		writeInt(b, ev.ref)
		b.WriteString(`,"bytes":`)
		writeInt64(b, ev.bytes)
		b.WriteString(`}}`)
	case evDeliver:
		head("i", "recv "+ev.name, "deliver")
		b.WriteString(`,"s":"t","args":{"from":`)
		writeInt(b, ev.ref)
		b.WriteString(`,"bytes":`)
		writeInt64(b, ev.bytes)
		b.WriteString(`}}`)
	case evLockWait:
		head("X", "lock "+strconv.Itoa(ev.ref)+" wait", "lock")
		b.WriteString(`,"args":{"res":`)
		writeInt(b, ev.ref)
		b.WriteString(`}}`)
	case evLockHold:
		head("X", "lock "+strconv.Itoa(ev.ref)+" hold", "lock")
		b.WriteString(`,"args":{"res":`)
		writeInt(b, ev.ref)
		b.WriteString(`}}`)
	case evBarrier:
		head("X", "barrier", "barrier")
		b.WriteString(`,"args":{"id":`)
		writeInt(b, ev.ref)
		b.WriteString(`}}`)
	case evMem:
		head("C", "mem "+ev.name, "mem")
		b.WriteString(`,"args":{"bytes":`)
		writeInt64(b, ev.bytes)
		b.WriteString(`}}`)
	case evSpan:
		head("X", ev.name, "app")
		b.WriteString(`,"args":{"bytes":`)
		writeInt64(b, ev.bytes)
		b.WriteString(`}}`)
	case evMark:
		head("i", ev.name, "mark")
		b.WriteString(`,"s":"t","args":{"bytes":`)
		writeInt64(b, ev.bytes)
		b.WriteString(`}}`)
	}
}

func writeInt(b *bytes.Buffer, v int) {
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(v), 10))
}

func writeInt64(b *bytes.Buffer, v int64) {
	b.Write(strconv.AppendInt(b.AvailableBuffer(), v, 10))
}

// writeFloat renders a simulated time with shortest-round-trip
// formatting — the same rule every metrics renderer in the repo uses,
// so equal values always produce equal bytes.
func writeFloat(b *bytes.Buffer, v float64) {
	b.Write(strconv.AppendFloat(b.AvailableBuffer(), v, 'g', -1, 64))
}

func writeEscaped(b *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c < 0x20:
			b.WriteString(`\u00`)
			const hex = "0123456789abcdef"
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		default:
			b.WriteByte(c)
		}
	}
}
