package apps_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/moldyn"
	"repro/internal/apps/nbf"
	"repro/internal/obs"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/pins.golden from this run")

const pinsGolden = "testdata/pins.golden"

// pinConfigs is one tiny configuration per registered app. The page
// knobs spread the shared arrays over several pages so aggregation,
// false sharing and the pipelined reduction all move traffic.
func pinConfigs() map[string]apps.Config {
	return map[string]apps.Config{
		"moldyn":   {N: 256, Procs: 4, Steps: 4, Knobs: map[string]int{"update_every": 2}},
		"nbf":      {N: 300, Procs: 4, Steps: 2, Knobs: map[string]int{"partners": 10, "page_size": 512}},
		"unstruct": {N: 200, Procs: 4, Steps: 2},
		"spmv":     {N: 300, Procs: 4, Steps: 2, Knobs: map[string]int{"nnz_row": 6, "page_size": 512}},
		"tsp":      {N: 7, Procs: 3, Knobs: map[string]int{"depth": 2}},
		"taskq":    {N: 40, Procs: 3},
	}
}

// pinMachines are the simulated machines every run is pinned under: the
// uniform default, and a perturbed one with a CPU straggler and jitter.
var pinMachines = []struct {
	name string
	m    apps.Machine
}{
	{"uniform", apps.Machine{}},
	{"perturbed", apps.Machine{Perturb: &apps.Perturb{
		CPU: []float64{1, 1.3}, JitterUS: 7, JitterSeed: 3,
	}}},
}

// digest hashes everything a result carries: the JSON encoding the
// result codec writes (Detail, Mem, MemPeak, Locks, TableOrg and the
// headline numbers) and the exact bits of the final state.
func digest(t *testing.T, r *apps.Result) string {
	t.Helper()
	js, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	for _, vs := range [][]float64{r.X, r.Forces} {
		binary.Write(h, binary.LittleEndian, int64(len(vs)))
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// pinnedDigests runs every registered app in all four slots plus the
// TreadMarks ablation options on every pinned machine, in a fixed
// order: uniform-machine runs all record into one trace, whose bytes
// are pinned too.
func pinnedDigests(t *testing.T) map[string]string {
	got := map[string]string{}
	for _, pm := range pinMachines {
		m := pm.m
		var tr *obs.Trace
		if pm.name == "uniform" {
			tr = obs.NewTrace()
			m.Trace = tr
		}
		cfgs := pinConfigs()
		for _, app := range apps.Names() {
			cfg, ok := cfgs[app]
			if !ok {
				t.Fatalf("no pinned configuration for registered app %q", app)
			}
			cfg.Machine = m
			w, err := apps.New(app, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []struct {
				slot string
				run  func() *apps.Result
			}{
				{"seq", w.Sequential}, {"chaos", w.Chaos}, {"tmk", w.TmkBase}, {"tmk-opt", w.TmkOpt},
			} {
				got[app+"/"+s.slot+"/"+pm.name] = digest(t, s.run())
			}
		}

		mp := moldyn.DefaultParams(128, 4)
		mp.Steps, mp.UpdateEvery, mp.PageSize, mp.Machine = 4, 2, 512, m
		mw := moldyn.Generate(mp)
		for _, a := range []struct {
			name string
			opt  moldyn.TmkOptions
		}{
			{"NoAggregation", moldyn.TmkOptions{Optimized: true, NoAggregation: true}},
			{"NoWriteAll", moldyn.TmkOptions{Optimized: true, NoWriteAll: true}},
			{"Incremental", moldyn.TmkOptions{Optimized: true, Incremental: true}},
			{"GCThresholdBytes", moldyn.TmkOptions{Optimized: true, GCThresholdBytes: 4 << 10}},
		} {
			got["moldyn/"+a.name+"/"+pm.name] = digest(t, moldyn.RunTmk(mw, a.opt))
		}
		np := nbf.DefaultParams(300, 4)
		np.Steps, np.Partners, np.PageSize, np.Machine = 2, 10, 512, m
		nw := nbf.Generate(np)
		for _, a := range []struct {
			name string
			opt  nbf.TmkOptions
		}{
			{"NoAggregation", nbf.TmkOptions{Optimized: true, NoAggregation: true}},
			{"NoWriteAll", nbf.TmkOptions{Optimized: true, NoWriteAll: true}},
		} {
			got["nbf/"+a.name+"/"+pm.name] = digest(t, nbf.RunTmk(nw, a.opt))
		}
		if tr != nil {
			got["trace/"+pm.name] = hashBytes(tr.JSON())
		}
	}
	return got
}

// TestPinnedEpisodes pins every backend's complete output — result
// encoding, final-state bits and trace bytes — to committed digests, so
// a refactor of the episode code around the backends is provably
// behavior-preserving. An intended change of simulated numbers
// re-records the digests with `go test ./internal/apps -run
// TestPinnedEpisodes -update`.
func TestPinnedEpisodes(t *testing.T) {
	got := pinnedDigests(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *updatePins {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(pinsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(pinsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, pinned %s", k, got[k], want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but no longer run", k)
		}
	}
}
