// Command compilekernel is the compiler front-end as a standalone
// source-to-source tool: it reads a kernel file (the Fortran-flavored
// language of internal/lang), runs the regular-section access analysis
// on each subroutine (or just the one named with -sub), and prints the
// transformed sources with the compiler-inserted Validate calls — the
// same transformation the paper's Parascope-based front-end performs.
//
//	go run ./cmd/compilekernel path/to/kernel.f        # all subroutines
//	go run ./cmd/compilekernel -sub computeforces file # one subroutine
//	go run ./cmd/compilekernel -builtin moldyn         # a bundled kernel
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/compiler"
	"repro/internal/lang"
)

func main() {
	names := make([]string, len(compiler.Kernels))
	for i, k := range compiler.Kernels {
		names[i] = k.Name
	}
	sub := flag.String("sub", "", "subroutine to transform (default: all)")
	builtin := flag.String("builtin", "", "use a bundled kernel: "+strings.Join(names, ", "))
	summaryOnly := flag.Bool("summary", false, "print only the access summaries")
	flag.Parse()

	var src string
	switch {
	case *builtin != "":
		for _, k := range compiler.Kernels {
			if k.Name == *builtin {
				src = k.Src
			}
		}
		if src == "" {
			fmt.Fprintf(os.Stderr, "compilekernel: unknown builtin %q\n", *builtin)
			os.Exit(2)
		}
	case flag.NArg() == 1:
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "compilekernel:", err)
			os.Exit(1)
		}
		src = string(b)
	default:
		fmt.Fprintln(os.Stderr, "usage: compilekernel [-sub name] [-summary] <file.f | -builtin name>")
		os.Exit(2)
	}

	prog, err := lang.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compilekernel: parse:", err)
		os.Exit(1)
	}

	subs := []string{}
	if *sub != "" {
		subs = append(subs, *sub)
	} else {
		for _, s := range prog.Subs {
			subs = append(subs, s.Name)
		}
	}
	if len(subs) == 0 {
		fmt.Fprintln(os.Stderr, "compilekernel: program has no subroutines")
		os.Exit(1)
	}

	for i, name := range subs {
		if i > 0 {
			fmt.Println()
		}
		out, summary, err := compiler.Transform(prog, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compilekernel: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("! access summary for %s:\n", summary.Sub)
		if len(summary.Descs) == 0 {
			fmt.Println("!   (no shared-array accesses)")
		}
		for _, d := range summary.Descs {
			fmt.Printf("!   %s\n", d)
		}
		if !*summaryOnly {
			fmt.Print(out)
		}
	}
}
