// Synchronization statistics: per-lock, per-processor attribution of
// the arbiter-level behavior — how often each resource was acquired,
// how long acquirers waited (simulated time), how long grantees held,
// and how many notice bytes rode on grants.
//
// Updates follow the shard contract (ledger.go) with the grant
// instant as the acting point: recordGrant and recordRelease run under
// Cluster.arbMu, recordGrant while the grantee is blocked (so its
// owner cannot touch the shard concurrently), recordRelease on the
// holder's own goroutine; CountGrantBytes runs on the grantee's
// goroutine after the grant channel has ordered it behind the
// arbiter's update. AcquireResource panics outside Cluster.Run, so
// every update has an owning processor. The wait and hold sums are
// floats: SortedLockKeys gives their one merge order.
package sim

import "sort"

// LockStat aggregates one (resource, processor) cell of the
// synchronization behavior. WaitUS is the simulated time between the
// request's arrival at the manager and the instant the resource came
// free for this grantee (zero when granted an idle resource); HoldUS is
// the simulated time from grant to release; GrantBytes are the protocol
// payload bytes shipped on grant messages (the TreadMarks write-notice
// freight, reported by the protocol layer via CountGrantBytes).
type LockStat struct {
	Acquires   int64
	WaitUS     float64
	HoldUS     float64
	GrantBytes int64
}

// Add returns the cell-wise sum a+b.
func (a LockStat) Add(b LockStat) LockStat {
	return LockStat{
		Acquires:   a.Acquires + b.Acquires,
		WaitUS:     a.WaitUS + b.WaitUS,
		HoldUS:     a.HoldUS + b.HoldUS,
		GrantBytes: a.GrantBytes + b.GrantBytes,
	}
}

// Sub returns the cell-wise difference a-b (window deltas).
func (a LockStat) Sub(b LockStat) LockStat {
	return LockStat{
		Acquires:   a.Acquires - b.Acquires,
		WaitUS:     a.WaitUS - b.WaitUS,
		HoldUS:     a.HoldUS - b.HoldUS,
		GrantBytes: a.GrantBytes - b.GrantBytes,
	}
}

// IsZero reports whether every counter is zero.
func (a LockStat) IsZero() bool { return a == LockStat{} }

// LockKey identifies one cell of the per-lock, per-processor grid.
type LockKey struct {
	Res  int // resource (lock) id
	Proc int // acquiring/holding processor
}

// SyncStats is the cluster-wide synchronization-statistics store, one
// shard per processor.
type SyncStats struct {
	shards []shard[int, LockStat]
}

func (s *SyncStats) init(procs int) {
	s.shards = make([]shard[int, LockStat], procs)
}

// recordGrant credits one acquire and its simulated wait to proc.
func (s *SyncStats) recordGrant(proc, res int, waitUS float64) {
	sh := &s.shards[proc]
	sh.mu.Lock()
	c := sh.cell(res)
	c.Acquires++
	c.WaitUS += waitUS
	sh.mu.Unlock()
}

// recordRelease credits the hold interval to proc.
func (s *SyncStats) recordRelease(proc, res int, holdUS float64) {
	sh := &s.shards[proc]
	sh.mu.Lock()
	sh.cell(res).HoldUS += holdUS
	sh.mu.Unlock()
}

// CountGrantBytes credits protocol payload bytes carried by a grant to
// processor proc for resource res. Protocol layers call it from the
// grantee's own goroutine (deterministic per-shard order); integers
// merge order-independently anyway.
func (s *SyncStats) CountGrantBytes(proc, res int, bytes int64) {
	sh := &s.shards[proc]
	sh.mu.Lock()
	sh.cell(res).GrantBytes += bytes
	sh.mu.Unlock()
}

// Snapshot returns the full per-(resource, processor) grid.
func (s *SyncStats) Snapshot() map[LockKey]LockStat {
	out := map[LockKey]LockStat{}
	each(s.shards, func(proc int, cells map[int]*LockStat) {
		for res, ls := range cells {
			out[LockKey{Res: res, Proc: proc}] = *ls
		}
	})
	return out
}

// TotalLockStat merges a snapshot down to a single cell, summing in
// (resource, processor) order.
func TotalLockStat(snap map[LockKey]LockStat) LockStat {
	var t LockStat
	for _, k := range SortedLockKeys(snap) {
		t = t.Add(snap[k])
	}
	return t
}

// SortedLockKeys returns the snapshot's keys ordered by (Res, Proc) —
// the canonical merge order for the non-associative float sums.
func SortedLockKeys(snap map[LockKey]LockStat) []LockKey {
	keys := make([]LockKey, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Res != keys[j].Res {
			return keys[i].Res < keys[j].Res
		}
		return keys[i].Proc < keys[j].Proc
	})
	return keys
}

// SubSnapshots returns end-start cell-wise, dropping all-zero cells
// (window deltas for a measurement interval).
func SubSnapshots(end, start map[LockKey]LockStat) map[LockKey]LockStat {
	out := map[LockKey]LockStat{}
	for k, e := range end {
		d := e.Sub(start[k])
		if !d.IsZero() {
			out[k] = d
		}
	}
	return out
}
