package apps_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/moldyn"
	"repro/internal/apps/nbf"
	"repro/internal/apps/spmv"
	"repro/internal/apps/taskq"
	"repro/internal/apps/tsp"
	"repro/internal/apps/unstruct"
	"repro/internal/tmk"
	"repro/internal/vm"
)

// TestVariantsShareOneImage pins that both TreadMarks variants of one
// Workload, which start from the one sealed image it builds, produce
// exactly what each produces alone on a fresh Workload — run one after
// the other or concurrently.
func TestVariantsShareOneImage(t *testing.T) {
	for app, cfg := range pinConfigs() {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			fresh := func() apps.Workload {
				w, err := apps.New(app, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			wantBase := digest(t, fresh().TmkBase())
			wantOpt := digest(t, fresh().TmkOpt())

			w := fresh()
			if got := digest(t, w.TmkBase()); got != wantBase {
				t.Errorf("tmk on a shared image differs from a fresh run")
			}
			if got := digest(t, w.TmkOpt()); got != wantOpt {
				t.Errorf("tmk-opt after tmk on its image differs from a fresh run")
			}

			w = fresh()
			var base, opt *apps.Result
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); base = w.TmkBase() }()
			go func() { defer wg.Done(); opt = w.TmkOpt() }()
			wg.Wait()
			if digest(t, base) != wantBase || digest(t, opt) != wantOpt {
				t.Errorf("tmk and tmk-opt running concurrently on one image differ from fresh runs")
			}
		})
	}
}

// TestImageUntouchedByRuns pins that a sealed image is read-only for the
// runs that start from it: after the base and the optimized variant ran
// on it, every page still holds what a freshly built image holds.
func TestImageUntouchedByRuns(t *testing.T) {
	mp := moldyn.DefaultParams(256, 4)
	mp.Steps, mp.UpdateEvery = 4, 2
	imageUntouched(t, moldyn.Generate(mp), moldyn.BuildImage, moldyn.RunTmk,
		func(im *moldyn.Image) *tmk.Image { return im.Image },
		moldyn.TmkOptions{}, moldyn.TmkOptions{Optimized: true})

	np := nbf.DefaultParams(300, 4)
	np.Steps, np.Partners, np.PageSize = 2, 10, 512
	imageUntouched(t, nbf.Generate(np), nbf.BuildImage, nbf.RunTmk,
		func(im *nbf.Image) *tmk.Image { return im.Image },
		nbf.TmkOptions{}, nbf.TmkOptions{Optimized: true})

	up := unstruct.DefaultParams(200, 4)
	up.Steps = 2
	imageUntouched(t, unstruct.Generate(up), unstruct.BuildImage, unstruct.RunTmk,
		func(im *unstruct.Image) *tmk.Image { return im.Image },
		unstruct.TmkOptions{}, unstruct.TmkOptions{Optimized: true})

	sp := spmv.DefaultParams(300, 4)
	sp.Steps, sp.NNZRow, sp.PageSize = 2, 6, 512
	imageUntouched(t, spmv.Generate(sp), spmv.BuildImage, spmv.RunTmk,
		func(im *spmv.Image) *tmk.Image { return im.Image },
		spmv.TmkOptions{}, spmv.TmkOptions{Optimized: true})

	tp := tsp.DefaultParams(7, 3)
	tp.SeedDepth = 2
	imageUntouched(t, tsp.Generate(tp), tsp.BuildImage, tsp.RunTmk,
		func(im *tsp.Image) *tmk.Image { return im.Image },
		tsp.TmkOptions{}, tsp.TmkOptions{Batched: true})

	imageUntouched(t, taskq.Generate(taskq.DefaultParams(40, 3)), taskq.BuildImage, taskq.RunTmk,
		func(im *taskq.Image) *tmk.Image { return im.Image },
		taskq.TmkOptions{}, taskq.TmkOptions{Batched: true})
}

// imageUntouched runs every variant in opts on one image of w, then
// compares that image's pages with a freshly built one's.
func imageUntouched[W, I, O any](t *testing.T, w W, build func(W) I, run func(W, I, O) *apps.Result,
	tmkImage func(I) *tmk.Image, opts ...O) {
	t.Helper()
	im := build(w)
	for _, o := range opts {
		run(w, im, o)
	}
	got, want := tmkImage(im), tmkImage(build(w))
	pages := want.Space().Arena().NumPages()
	if n := got.Space().Arena().NumPages(); n != pages {
		t.Fatalf("%T: image spans %d pages after the runs, %d fresh", im, n, pages)
	}
	for p := vm.PageID(0); p < vm.PageID(pages); p++ {
		if !bytes.Equal(got.Space().Page(p).Data(), want.Space().Page(p).Data()) {
			t.Fatalf("%T: page %d of the image changed under the runs", im, p)
		}
	}
}
