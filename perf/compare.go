package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: which
// way each end-to-end metric is better and how much worse it may get.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is one results file's runs of one (workload, metric) pair.
type side struct {
	values sample
	unit   string
}

// verdict judges b against a for a metric with a bound, by the rule of
// the metrics guide: the change's median may not be worse than the
// parent's by more than the bound; where either side's run-to-run
// spread is wider than the bound the pair is unresolved, not
// unchanged — unless every run of b reads better than every run of a.
func verdict(a, b sample, lowerIsBetter bool, bound float64) string {
	ma, mb := a.median(), b.median()
	if ma == 0 {
		return "unresolved (zero base)"
	}
	worse := (mb - ma) / ma
	if !lowerIsBetter {
		worse = -worse
	}
	if a.spread() > bound || b.spread() > bound {
		as, bs := a.sorted(), b.sorted()
		allBetter := bs[len(bs)-1] < as[0]
		if !lowerIsBetter {
			allBetter = bs[0] > as[len(as)-1]
		}
		if !allBetter {
			return fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% > bound %.0f%%)",
				100*a.spread(), 100*b.spread(), 100*bound)
		}
	}
	if worse > bound {
		return fmt.Sprintf("regression (%.1f%% worse > bound %.0f%%)", 100*worse, 100*bound)
	}
	return "within bound"
}

func loadResults(path string) (map[string]map[string]*side, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := map[string]map[string]*side{}
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*side{}
		}
		for name, m := range r.Metrics {
			s := out[r.Workload][name]
			if s == nil {
				s = &side{unit: m.Unit}
				out[r.Workload][name] = s
			}
			s.values = append(s.values, m.Value)
		}
	}
	return out, nil
}

// compareFiles prints, for every (workload, metric) pair both files
// hold, both medians, the ratio with its base, and — for the
// end-to-end metrics — the verdict against BENCHMARK.json's bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var spec benchmarkSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("reading the bounds (run from the repository root): %v", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s, b = %s; ratio = median(b) / median(a), base a\n", pathA, pathB)
	for _, workload := range workloadNames {
		var names []string
		for name := range a[workload] {
			if b[workload][name] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			sa, sb := a[workload][name], b[workload][name]
			ma, mb := sa.values.median(), sb.values.median()
			line := fmt.Sprintf("%-17s %-34s a=%-12.6g b=%-12.6g %-5s n=%d/%d", workload, name,
				ma, mb, sa.unit, len(sa.values), len(sb.values))
			if ma != 0 {
				line += fmt.Sprintf(" ratio=%.3f", mb/ma)
			}
			verdictText := "no bound (per-layer)"
			for _, m := range spec.EndToEnd {
				if m.Name == name {
					verdictText = verdict(sa.values, sb.values, m.Better == "lower", m.Bound)
				}
			}
			fmt.Fprintln(w, line, " ", verdictText)
		}
	}
	return nil
}
