package compiler

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/lang"
)

func mustParse(t *testing.T, src string) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func descStrings(sum *Summary) []string {
	out := make([]string, len(sum.Descs))
	for i, d := range sum.Descs {
		out[i] = d.String()
	}
	return out
}

func TestMoldynAnalysis(t *testing.T) {
	// The headline result (Figure 2): ComputeForces gets one INDIRECT
	// READ descriptor on x through interaction_list(1:2, mylo:myhi).
	// local_forces is private and produces nothing.
	prog := mustParse(t, MoldynKernel)
	sum, err := Analyze(prog, "computeforces")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Descs) != 1 {
		t.Fatalf("want 1 descriptor, got %v", descStrings(sum))
	}
	d := sum.Descs[0]
	if !d.Indirect() || d.Data != "x" || d.Indir != "interaction_list" {
		t.Fatalf("bad descriptor: %s", d)
	}
	if d.Access != Read {
		t.Fatalf("x should be READ, got %s", d.Access)
	}
	if got := d.sectionString(); got != "[1:2, mylo:myhi]" {
		t.Fatalf("section = %s, want [1:2, mylo:myhi]", got)
	}
}

func TestMoldynTransformGolden(t *testing.T) {
	prog := mustParse(t, MoldynKernel)
	src, _, err := Transform(prog, "computeforces")
	if err != nil {
		t.Fatal(err)
	}
	want := `SUBROUTINE computeforces()
  Validate(1, INDIRECT, x, interaction_list[1:2, mylo:myhi], READ)
  do i = mylo, myhi
    n1 = interaction_list(1, i)
    n2 = interaction_list(2, i)
    do d = 1, 3
      f = x(d, n1) - x(d, n2)
      local_forces(d, n1) = local_forces(d, n1) + f
      local_forces(d, n2) = local_forces(d, n2) - f
    enddo
  enddo
END
`
	if src != want {
		t.Fatalf("transformed source mismatch:\n--- got ---\n%s\n--- want ---\n%s", src, want)
	}
}

// flatPartnerKernel is nbf's force loop over a one-dimensional partner
// list with a literal partner count: molecule i's partners are the
// contiguous slice partners((i-1)*100+1 : i*100).
const flatPartnerKernel = `
program nbf
shared real x(n)
shared real forces(n)
shared integer partners(m)
private real local_forces(n)

call forceloop()
end

subroutine forceloop()
do i = mylo, myhi
  do k = 1, 100
    j = partners((i - 1) * 100 + k)
    f = x(i) - x(j)
    local_forces(i) = local_forces(i) + f
    local_forces(j) = local_forces(j) - f
  enddo
enddo
end
`

func TestNBFAnalysisFlattensPartnerList(t *testing.T) {
	// The partner subscript (i-1)*100+k over k=1..100 must collapse to
	// the dense section [(mylo-1)*100+1 : (myhi-1)*100+100] — the
	// contiguous slice of the concatenated partner list.
	prog := mustParse(t, flatPartnerKernel)
	sum, err := Analyze(prog, "forceloop")
	if err != nil {
		t.Fatal(err)
	}
	var indirect *DescSpec
	var direct *DescSpec
	for _, d := range sum.Descs {
		if d.Indirect() {
			indirect = d
		} else {
			direct = d
		}
	}
	if indirect == nil {
		t.Fatalf("no INDIRECT descriptor: %v", descStrings(sum))
	}
	if indirect.Data != "x" || indirect.Indir != "partners" {
		t.Fatalf("bad indirect descriptor: %s", indirect)
	}
	if len(indirect.Section) != 1 || indirect.Section[0].Stride != 1 {
		t.Fatalf("partner section not dense: %s", indirect)
	}
	// x(i) is also read directly.
	if direct == nil || direct.Data != "x" || direct.Access != Read {
		t.Fatalf("missing direct x(i) read: %v", descStrings(sum))
	}
	// Bind the section with concrete bounds and check the range.
	env := Env{"mylo": 11, "myhi": 20}
	lo, err := eval(indirect.Section[0].Lo, env)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := eval(indirect.Section[0].Hi, env)
	if err != nil {
		t.Fatal(err)
	}
	if lo != (11-1)*100+1 || hi != (20-1)*100+100 {
		t.Fatalf("bound section = [%d:%d], want [1001:2000]", lo, hi)
	}
}

// TestKernelSummaries pins the descriptors of every subroutine a
// TreadMarks backend binds (MustBind): which sections each Validate
// carries and with which access tags. The scenario pins do not guard the
// tags: a READ&WRITE_ALL that decays to WRITE_ALL, or the reverse, can
// leave every simulated number of a small run unchanged.
func TestKernelSummaries(t *testing.T) {
	srcs := map[string]string{}
	for _, k := range Kernels {
		srcs[k.Name] = k.Src
	}
	for _, c := range []struct {
		kernel, sub string
		want        []string
	}{
		// nbf: x through column i of the partner list and x's own block
		// before the force loop, then the own blocks of forces and x
		// before the integration.
		{"nbf", "forceloop", []string{"INDIRECT, x, partners[1:ppm, mylo:myhi], READ", "DIRECT, x[mylo:myhi], READ"}},
		{"nbf", "integrate", []string{"DIRECT, forces[mylo:myhi], READ", "DIRECT, x[mylo:myhi], READ&WRITE_ALL"}},
		// moldyn: Figure 2's force loop; the integration and the list
		// rebuild over dense 2-D sections, which bind to 1-D ranges.
		{"moldyn", "computeforces", []string{"INDIRECT, x, interaction_list[1:2, mylo:myhi], READ"}},
		{"moldyn", "integrate", []string{"DIRECT, forces[1:3, mylo:myhi], READ", "DIRECT, x[1:3, mylo:myhi], READ&WRITE_ALL"}},
		{"moldyn", "buildlist", []string{"DIRECT, x[1:3, 1:n], READ"}},
		// spmv: x through the owned rows' column indices, y's own block
		// overwritten; then x's own block refreshed from y.
		{"spmv", "matvec", []string{"INDIRECT, x, cols[1:nnzrow, mylo:myhi], READ", "DIRECT, y[mylo:myhi], WRITE_ALL"}},
		{"spmv", "refresh", []string{"DIRECT, x[mylo:myhi], READ&WRITE_ALL", "DIRECT, y[mylo:myhi], READ"}},
		// unstruct: x through the processor's edge section; then x's own
		// nodes relaxed from y.
		{"unstruct", "edgeloop", []string{"INDIRECT, x, edges[1:2, elo:ehi], READ"}},
		{"unstruct", "relax", []string{"DIRECT, x[mylo:myhi], READ&WRITE_ALL", "DIRECT, y[mylo:myhi], READ"}},
		// The pipelined reduction: the first writer overwrites its block,
		// later writers read-modify-write it.
		{"reduction", "firststage", []string{"DIRECT, forces[blo:bhi], WRITE_ALL"}},
		{"reduction", "laterstage", []string{"DIRECT, forces[blo:bhi], READ&WRITE_ALL"}},
	} {
		b, ok := bundled()[[2]string{srcs[c.kernel], c.sub}]
		if !ok {
			t.Errorf("%s %s: not a bundled subroutine", c.kernel, c.sub)
			continue
		}
		if got := descStrings(b.sum); !slices.Equal(got, c.want) {
			t.Errorf("%s %s: %q, want %q", c.kernel, c.sub, got, c.want)
		}
	}
}

func TestReductionAccessTags(t *testing.T) {
	prog := mustParse(t, ReductionKernel)
	first, err := Analyze(prog, "firststage")
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Descs) != 1 || first.Descs[0].Access != WriteAll {
		t.Fatalf("first stage should be WRITE_ALL: %v", descStrings(first))
	}
	later, err := Analyze(prog, "laterstage")
	if err != nil {
		t.Fatal(err)
	}
	if len(later.Descs) != 1 || later.Descs[0].Access != ReadWriteAll {
		t.Fatalf("later stage should be READ&WRITE_ALL: %v", descStrings(later))
	}
}

func TestConditionalWriteIsNotWriteAll(t *testing.T) {
	src := `
program p
shared real a(n)
call s()
end
subroutine s()
do i = lo, hi
  if (i - 5) then
    a(i) = 1
  endif
enddo
end
`
	prog := mustParse(t, src)
	sum, err := Analyze(prog, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Descs) != 1 || sum.Descs[0].Access != Write {
		t.Fatalf("conditional write must be WRITE, got %v", descStrings(sum))
	}
}

func TestStridedSubscript(t *testing.T) {
	src := `
program p
shared real a(n)
call s()
end
subroutine s()
do i = lo, hi
  a(2 * i) = 1
enddo
end
`
	prog := mustParse(t, src)
	sum, err := Analyze(prog, "s")
	if err != nil {
		t.Fatal(err)
	}
	d := sum.Descs[0]
	if d.Section[0].Stride != 2 {
		t.Fatalf("stride = %d, want 2 (%s)", d.Section[0].Stride, d)
	}
	if d.Access != Write {
		t.Fatalf("strided write cannot be WRITE_ALL: %s", d.Access)
	}
}

// chainKernel reaches data through an index array that is itself
// indexed through another (data(outer(inner(i)))): a multi-level chain,
// which the analysis rejects.
const chainKernel = `
program twolevel
shared real data(n)
shared integer outer(m)
shared integer inner(m)

call walk()
end

subroutine walk()
do i = mylo, myhi
  a = inner(i)
  b = outer(a)
  s = s + data(b)
enddo
end
`

func TestAnalyzeErrors(t *testing.T) {
	for _, c := range []struct {
		name, src, sub string
		err            string // a substring of the error
	}{
		{"chained_subscript", chainKernel, "walk", "indirection chain inner -> outer"},
		{"non-affine_subscript", `
program p
shared real x(n)
shared integer idx(n)
call s()
end
subroutine s()
do i = lo, hi
  j = idx(i * i)
  t = x(j)
enddo
end
`, "s", "subscript 0 of idx is neither affine nor an indirection"},
		// k * k is loop invariant where idx is loaded but a product of
		// loop variables where x(j) is used, inside do k: only
		// recordIndirect, which classifies the load's subscript in the
		// use's loop nest, rejects it.
		{"subscript_not_affine_at_use", `
program p
shared real x(n)
shared integer idx(n)
call s()
end
subroutine s()
do i = lo, hi
  j = idx(k * k)
  do k = lo, hi
    t = x(j)
  enddo
enddo
end
`, "s", "indirection array idx subscript 0 not affine"},
		{"non-constant_step", `
program p
shared real x(n)
call s()
end
subroutine s()
do i = lo, hi, k
  x(i) = 1
enddo
end
`, "s", "non-constant loop step"},
		{"negative_coefficient", `
program p
shared real x(n)
call s()
end
subroutine s()
do i = lo, hi
  x(0 - i) = 1
enddo
end
`, "s", "negative subscript coefficient"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Analyze(mustParse(t, c.src), c.sub)
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("error %v, want one containing %q", err, c.err)
			}
		})
	}
}

func TestReadWriteMerge(t *testing.T) {
	src := `
program p
shared real a(n)
call s()
end
subroutine s()
do i = lo, hi
  a(i) = a(i) + 1
enddo
end
`
	prog := mustParse(t, src)
	sum, err := Analyze(prog, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Descs) != 1 || sum.Descs[0].Access != ReadWriteAll {
		t.Fatalf("a(i) = a(i)+1 over full range should merge to READ&WRITE_ALL: %v", descStrings(sum))
	}
}

// badSources are programs the parser must reject.
var badSources = []string{
	"",                       // no program
	"program p\ndo i = 1\n",  // malformed do
	"program p\nx(1 = 2\n",   // unbalanced
	"program p\n@\nend\n",    // bad rune
	"program p\ncall\nend\n", // call without name
}

func TestParserErrors(t *testing.T) {
	for _, src := range badSources {
		if _, err := lang.Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestUnknownSubroutine(t *testing.T) {
	prog := mustParse(t, MoldynKernel)
	if _, err := Analyze(prog, "nosuch"); err == nil {
		t.Fatal("no error for unknown subroutine")
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := eval(&lang.Ident{Name: "unbound"}, Env{}); err == nil {
		t.Fatal("unbound symbol must error")
	}
	v, err := eval(&lang.BinOp{Op: "*",
		L: &lang.Num{Value: 3},
		R: &lang.BinOp{Op: "+", L: &lang.Ident{Name: "a"}, R: &lang.Num{Value: 2}},
	}, Env{"a": 4})
	if err != nil || v != 18 {
		t.Fatalf("eval = %d, %v", v, err)
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lang.Lex("do i = 1, n ! comment\nenddo")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tk := range toks {
		kinds = append(kinds, tk.String())
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, `"do"`) || strings.Contains(joined, "comment") {
		t.Fatalf("lex output wrong: %s", joined)
	}
}
