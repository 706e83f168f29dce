package apps_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/obs"
)

// direct runs a fresh workload's four backends one after another in
// slot order and fills the speedups the way RunAll does.
func direct(t *testing.T, name string, cfg apps.Config) *apps.VariantSet {
	t.Helper()
	w, err := apps.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := &apps.VariantSet{Seq: w.Sequential(), Chaos: w.Chaos(), Base: w.TmkBase(), Opt: w.TmkOpt()}
	for _, r := range vs.Parallel() {
		if r.TimeSec > 0 {
			r.Speedup = vs.Seq.TimeSec / r.TimeSec
		}
	}
	vs.Seq.Speedup = 1
	return vs
}

// TestRunAllMatchesDirectCalls: running the backends in lanes changes
// nothing a result carries, and a traced workload's single lane records
// its episodes in slot order.
func TestRunAllMatchesDirectCalls(t *testing.T) {
	for name, cfg := range appConfigs(t) {
		t.Run(name, func(t *testing.T) {
			w, err := apps.New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := apps.RunAll(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			want := direct(t, name, cfg)
			for i, slot := range apps.Slots {
				if !reflect.DeepEqual(got.All()[i], want.All()[i]) {
					t.Errorf("%s: RunAll's result differs from a direct call", slot)
				}
			}

			traced := func(run func(apps.Config)) []byte {
				c := cfg
				c.Machine.Trace = obs.NewTrace()
				run(c)
				return c.Machine.Trace.JSON()
			}
			lanes := traced(func(c apps.Config) {
				w, err := apps.New(name, c)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := apps.RunAll(context.Background(), w); err != nil {
					t.Fatal(err)
				}
			})
			slotOrder := traced(func(c apps.Config) { direct(t, name, c) })
			if !bytes.Equal(lanes, slotOrder) {
				t.Error("a traced RunAll's trace differs from the backends' in slot order")
			}
		})
	}
}

// await waits for ch, failing after a bound: a RunAll that ran the
// lanes one after another would otherwise wait forever.
func await(t *testing.T, ch <-chan struct{}) {
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Error("the other lane never ran: RunAll did not run the lanes concurrently")
	}
}

// result is a backend stand-in's outcome: a one-element final state
// every slot agrees on.
func result(system string) *apps.Result {
	return &apps.Result{System: system, TimeSec: 1, X: []float64{1}}
}

func TestRunAllCancelJoinsBothLanes(t *testing.T) {
	// One of seq and tmk outlasts the cancel by a while; RunAll must
	// wait for it whichever lane it is in.
	for _, slow := range []string{"seq", "tmk"} {
		t.Run("slow "+slow, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seqStarted := make(chan struct{})
			var done, laterRuns atomic.Int32
			finish := func(system string) *apps.Result {
				if system == slow {
					time.Sleep(20 * time.Millisecond)
				}
				done.Add(1)
				return result(system)
			}
			w := apps.Workload{App: "fake",
				Sequential: func() *apps.Result {
					close(seqStarted)
					await(t, ctx.Done())
					return finish("seq")
				},
				Chaos: func() *apps.Result { laterRuns.Add(1); return result("chaos") },
				TmkBase: func() *apps.Result {
					await(t, seqStarted)
					cancel()
					return finish("tmk")
				},
				TmkOpt: func() *apps.Result { laterRuns.Add(1); return result("tmk-opt") },
			}
			vs, err := apps.RunAll(ctx, w)
			if !errors.Is(err, context.Canceled) || vs != nil {
				t.Fatalf("RunAll = (%v, %v), want (nil, context.Canceled)", vs, err)
			}
			if n := done.Load(); n != 2 {
				t.Errorf("RunAll returned with %d of 2 lanes joined", n)
			}
			if n := laterRuns.Load(); n != 0 {
				t.Errorf("%d backends started after the cancel", n)
			}
		})
	}
}

func TestRunAllRepanicsAfterJoin(t *testing.T) {
	boom := errors.New("chaos backend failed")
	baseStarted := make(chan struct{})
	var optDone atomic.Int32
	w := apps.Workload{App: "fake",
		Sequential: func() *apps.Result { return result("seq") },
		Chaos: func() *apps.Result {
			await(t, baseStarted)
			panic(boom)
		},
		TmkBase: func() *apps.Result { close(baseStarted); return result("tmk") },
		TmkOpt: func() *apps.Result {
			time.Sleep(10 * time.Millisecond)
			optDone.Add(1)
			return result("tmk-opt")
		},
	}
	defer func() {
		if p := recover(); p != boom {
			t.Fatalf("recovered %v, want the chaos backend's panic value", p)
		}
		if optDone.Load() != 1 {
			t.Error("RunAll re-panicked before the TreadMarks lane joined")
		}
	}()
	apps.RunAll(context.Background(), w)
	t.Fatal("RunAll returned instead of panicking")
}
