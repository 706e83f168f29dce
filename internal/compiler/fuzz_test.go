package compiler

import (
	"testing"

	"repro/internal/lang"
)

// FuzzAnalyze drives the front end with arbitrary source: a program the
// parser accepts must analyse and transform every subroutine without a
// panic (an error is a fine answer). Seeds are the bundled kernels, the
// test kernels and the parser-error inputs; inputs that once panicked
// are under testdata/fuzz/FuzzAnalyze.
func FuzzAnalyze(f *testing.F) {
	for _, k := range Kernels {
		f.Add(k.Src)
	}
	f.Add(flatPartnerKernel)
	f.Add(chainKernel)
	for _, src := range badSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			return
		}
		for _, sub := range prog.Subs {
			Analyze(prog, sub.Name)
			Transform(prog, sub.Name)
		}
	})
}
