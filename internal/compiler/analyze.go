// Package compiler implements the paper's compiler support (§3.3): for
// each subroutine it identifies the shared-array accesses in the loop
// nests, computes regular section descriptors for them — in particular
// the section of the indirection array each processor traverses — and
// inserts a Validate call at the fetch point (the subroutine entry,
// since the analysis is intraprocedural, exactly as in the paper).
//
// The output is both a transformed source listing (Figure 2) and a list
// of descriptor specifications with symbolic bounds that the run-time
// binds to concrete values (processor-local loop bounds) each execution.
package compiler

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lang"
)

// Access mirrors the paper's access-type tags.
type Access int

const (
	Read Access = iota
	Write
	ReadWrite
	WriteAll
	ReadWriteAll
)

func (a Access) String() string {
	switch a {
	case Read:
		return "READ"
	case Write:
		return "WRITE"
	case ReadWrite:
		return "READ&WRITE"
	case WriteAll:
		return "WRITE_ALL"
	case ReadWriteAll:
		return "READ&WRITE_ALL"
	}
	return "?"
}

// merge combines two access tags on the same section.
func (a Access) merge(b Access) Access {
	full := a == WriteAll || a == ReadWriteAll || b == WriteAll || b == ReadWriteAll
	reads := a == Read || a == ReadWrite || a == ReadWriteAll || b == Read || b == ReadWrite || b == ReadWriteAll
	writes := a != Read || b != Read
	switch {
	case reads && writes && full:
		return ReadWriteAll
	case reads && writes:
		return ReadWrite
	case writes && full:
		return WriteAll
	case writes:
		return Write
	default:
		return Read
	}
}

// DimSpec is one dimension of a symbolic regular section: bounds are
// expressions over the program's scalars, evaluated at bind time.
type DimSpec struct {
	Lo, Hi lang.Expr
	Stride int
}

func (d DimSpec) String() string {
	if d.Stride == 1 {
		return fmt.Sprintf("%s:%s", d.Lo, d.Hi)
	}
	return fmt.Sprintf("%s:%s:%d", d.Lo, d.Hi, d.Stride)
}

// DescSpec is one access descriptor the compiler emits for Validate.
type DescSpec struct {
	// Data is the shared data array accessed.
	Data string
	// Indir is the indirection array an INDIRECT access goes through,
	// "" for a DIRECT one.
	Indir string
	// Section describes the accessed part of Indir (INDIRECT) or of Data
	// itself (DIRECT).
	Section []DimSpec
	Access  Access
}

// Indirect reports whether the access goes through an indirection array.
func (d *DescSpec) Indirect() bool { return d.Indir != "" }

// Key identifies the (data, indirection, section) tuple for merging.
func (d *DescSpec) Key() string {
	return d.Data + "|" + d.Indir + "|" + d.sectionString()
}

func (d *DescSpec) sectionString() string {
	parts := make([]string, len(d.Section))
	for i, s := range d.Section {
		parts[i] = s.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// String renders the descriptor like the paper's Validate arguments.
func (d *DescSpec) String() string {
	kind := "DIRECT"
	target := d.Data
	if d.Indirect() {
		kind = "INDIRECT"
		target = fmt.Sprintf("%s, %s%s", d.Data, d.Indir, d.sectionString())
	} else {
		target = fmt.Sprintf("%s%s", d.Data, d.sectionString())
	}
	return fmt.Sprintf("%s, %s, %s", kind, target, d.Access)
}

// Summary is the analysis result for one subroutine: the descriptors to
// supply to the Validate inserted at its entry.
type Summary struct {
	Sub   string
	Descs []*DescSpec
}

// Analyze computes the access summary of one subroutine of the program.
func Analyze(prog *lang.Program, subName string) (*Summary, error) {
	sub := prog.Sub(subName)
	if sub == nil {
		return nil, fmt.Errorf("compiler: no subroutine %q", subName)
	}
	a := &analyzer{
		prog:   prog,
		shared: map[string]*lang.Decl{},
		descs:  map[string]*DescSpec{},
	}
	for _, d := range prog.Decls {
		if d.Shared {
			a.shared[d.Name] = d
		}
	}
	if err := a.walkStmts(sub.Body, nil, map[string]*lang.ArrayRef{}, false); err != nil {
		return nil, err
	}
	sum := &Summary{Sub: sub.Name}
	keys := make([]string, 0, len(a.descs))
	for k := range a.descs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sum.Descs = append(sum.Descs, a.descs[k])
	}
	sum.Descs = coalesce(sum.Descs)
	sum.Descs = dropScannedIndirectionReads(sum.Descs)
	return sum, nil
}

// coalesce merges descriptors on the same data/indirection arrays whose
// sections differ in exactly one dimension by adjacent constant ranges —
// e.g. interaction_list(1, i) and interaction_list(2, i) become the
// single section [1:2, mylo:myhi] of Figure 2.
func coalesce(descs []*DescSpec) []*DescSpec {
	changed := true
	for changed {
		changed = false
		for i := 0; i < len(descs) && !changed; i++ {
			for j := i + 1; j < len(descs) && !changed; j++ {
				if m := tryMerge(descs[i], descs[j]); m != nil {
					out := append([]*DescSpec{}, descs[:i]...)
					out = append(out, m)
					out = append(out, descs[i+1:j]...)
					out = append(out, descs[j+1:]...)
					descs = out
					changed = true
				}
			}
		}
	}
	return descs
}

// tryMerge returns the union descriptor if a and b cover adjacent
// sections of the same arrays with the same access, else nil.
func tryMerge(a, b *DescSpec) *DescSpec {
	if a.Data != b.Data || a.Access != b.Access ||
		a.Indir != b.Indir ||
		len(a.Section) != len(b.Section) {
		return nil
	}
	diff := -1
	for i := range a.Section {
		if a.Section[i].String() != b.Section[i].String() {
			if diff >= 0 {
				return nil
			}
			diff = i
		}
	}
	if diff < 0 {
		return a // identical
	}
	da, db := a.Section[diff], b.Section[diff]
	if da.Stride != 1 || db.Stride != 1 {
		return nil
	}
	aLo, okALo := litOf(da.Lo)
	aHi, okAHi := litOf(da.Hi)
	bLo, okBLo := litOf(db.Lo)
	bHi, okBHi := litOf(db.Hi)
	if !(okALo && okAHi && okBLo && okBHi) {
		return nil
	}
	// Adjacent or overlapping constant ranges merge.
	if bLo > aHi+1 || aLo > bHi+1 {
		return nil
	}
	lo, hi := aLo, aHi
	if bLo < lo {
		lo = bLo
	}
	if bHi > hi {
		hi = bHi
	}
	merged := *a
	merged.Section = append([]DimSpec(nil), a.Section...)
	merged.Section[diff] = DimSpec{Lo: numExpr(lo), Hi: numExpr(hi), Stride: 1}
	return &merged
}

func litOf(e lang.Expr) (int, bool) {
	n, ok := e.(*lang.Num)
	if !ok {
		return 0, false
	}
	return int(n.Value), true
}

func numExpr(v int) lang.Expr { return &lang.Num{Value: float64(v)} }

// dropScannedIndirectionReads removes DIRECT read descriptors on arrays
// that some INDIRECT descriptor already scans as its indirection array:
// Read_indices fetches those pages itself (§3.2), so a separate
// descriptor would be redundant — and the paper's Figure 2 emits none.
func dropScannedIndirectionReads(descs []*DescSpec) []*DescSpec {
	scanned := map[string]bool{}
	for _, d := range descs {
		if d.Indirect() {
			scanned[d.Indir] = true
		}
	}
	out := descs[:0]
	for _, d := range descs {
		if !d.Indirect() && d.Access == Read && scanned[d.Data] {
			continue
		}
		out = append(out, d)
	}
	return out
}

type loopCtx struct {
	v      string
	lo, hi lang.Expr
	step   int
	inner  *loopCtx // next-inner loop (chain head is outermost)
}

type analyzer struct {
	prog   *lang.Program
	shared map[string]*lang.Decl
	descs  map[string]*DescSpec
}

// record merges a descriptor into the summary.
func (a *analyzer) record(d *DescSpec) {
	k := d.Key()
	if prev, ok := a.descs[k]; ok {
		prev.Access = prev.Access.merge(d.Access)
		return
	}
	a.descs[k] = d
}

// walkStmts scans statements. loops is the enclosing loop-nest chain
// (outermost first); defs maps scalars to their reaching indirection
// definitions (v = B(...)); conditional marks statements under an If
// (which disqualifies WRITE_ALL).
func (a *analyzer) walkStmts(body []lang.Stmt, loops []*loopCtx, defs map[string]*lang.ArrayRef, conditional bool) error {
	for _, st := range body {
		switch s := st.(type) {
		case *lang.Do:
			step := 1
			if s.Step != nil {
				if n, ok := s.Step.(*lang.Num); ok {
					step = int(n.Value)
				} else {
					return fmt.Errorf("compiler: non-constant loop step in do %s", s.Var)
				}
			}
			lc := &loopCtx{v: s.Var, lo: s.Lo, hi: s.Hi, step: step}
			if err := a.walkStmts(s.Body, append(loops, lc), defs, conditional); err != nil {
				return err
			}
		case *lang.If:
			if err := a.walkExpr(s.Cond, loops, defs); err != nil {
				return err
			}
			if err := a.walkStmts(s.Body, loops, defs, true); err != nil {
				return err
			}
		case *lang.Assign:
			// RHS reads first (reaching defs are pre-assignment).
			if err := a.walkExpr(s.RHS, loops, defs); err != nil {
				return err
			}
			if s.LHS != nil {
				if err := a.classifyRef(s.LHS, loops, defs, true, conditional); err != nil {
					return err
				}
			} else {
				// Scalar definition: remember indirection loads for later
				// subscript classification (v = B(...)).
				if ref, ok := s.RHS.(*lang.ArrayRef); ok && a.shared[ref.Name] != nil && a.shared[ref.Name].Type == "integer" {
					defs[s.Var] = ref
				} else {
					delete(defs, s.Var)
				}
			}
		case *lang.Call, *lang.BarrierStmt:
			// Calls are opaque (no interprocedural analysis); barriers
			// are synchronization points, not accesses.
		default:
			return fmt.Errorf("compiler: unhandled statement %T", st)
		}
	}
	return nil
}

// walkExpr records the reads in an expression.
func (a *analyzer) walkExpr(e lang.Expr, loops []*loopCtx, defs map[string]*lang.ArrayRef) error {
	switch x := e.(type) {
	case *lang.Num, *lang.Ident:
		return nil
	case *lang.BinOp:
		if err := a.walkExpr(x.L, loops, defs); err != nil {
			return err
		}
		return a.walkExpr(x.R, loops, defs)
	case *lang.ArrayRef:
		for _, sub := range x.Subs {
			if err := a.walkExpr(sub, loops, defs); err != nil {
				return err
			}
		}
		return a.classifyRef(x, loops, defs, false, false)
	}
	return fmt.Errorf("compiler: unhandled expression %T", e)
}
