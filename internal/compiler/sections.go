// Regular section construction: classifying subscripts as affine
// expressions of loop variables (regular section analysis, [Havlak &
// Kennedy]) or as indirection-mediated, and building the symbolic
// section descriptors Validate receives.
package compiler

import (
	"fmt"

	"repro/internal/lang"
)

// affine is coef*v + off, where v is a loop variable ("" for loop
// invariant) and off is a symbolic expression.
type affine struct {
	v    string
	coef int
	off  lang.Expr
	flat bool // produced by flatten: dense multi-loop collapse
}

// classifyRef turns one shared-array reference into a descriptor.
func (a *analyzer) classifyRef(ref *lang.ArrayRef, loops []*loopCtx, defs map[string]*lang.ArrayRef, isWrite, conditional bool) error {
	decl := a.shared[ref.Name]
	if decl == nil {
		return nil // private array or scalar: no shared-memory traffic
	}

	// Determine whether any subscript goes through an indirection array.
	for _, sub := range ref.Subs {
		if id, ok := sub.(*lang.Ident); ok {
			if def, ok := defs[id.Name]; ok {
				// ref.Name is accessed through indirection array def.Name:
				// the descriptor's section is the section of the
				// indirection array (§3.3).
				return a.recordIndirect(ref, def, loops, defs, isWrite)
			}
		}
	}

	// Fully affine: a DIRECT descriptor over the data array itself.
	dims := make([]DimSpec, len(ref.Subs))
	fullWrite := isWrite && !conditional
	for i, sub := range ref.Subs {
		af, ok := a.affineOf(sub, loops)
		if !ok {
			return fmt.Errorf("compiler: subscript %d of %s is neither affine nor an indirection (%s)", i, ref.Name, sub)
		}
		dim, covers, err := dimOf(af, loops)
		if err != nil {
			return err
		}
		dims[i] = dim
		// WRITE_ALL requires every element of the section to be written:
		// each dimension's subscript must sweep it densely.
		if !covers {
			fullWrite = fullWrite && af.v == "" // a constant dim is trivially covered
		}
	}
	acc := Read
	if isWrite {
		if fullWrite {
			acc = WriteAll
		} else {
			acc = Write
		}
	}
	a.record(&DescSpec{Data: ref.Name, Section: dims, Access: acc})
	return nil
}

// recordIndirect emits the INDIRECT descriptor for data access ref
// through indirection load def. An indirection array whose own subscript
// goes through another one (a chain, B(C(i))) is an error: Validate
// scans a single level.
func (a *analyzer) recordIndirect(ref *lang.ArrayRef, def *lang.ArrayRef, loops []*loopCtx, defs map[string]*lang.ArrayRef, isWrite bool) error {
	dims := make([]DimSpec, len(def.Subs))
	for i, sub := range def.Subs {
		if id, ok := sub.(*lang.Ident); ok {
			if inner, ok := defs[id.Name]; ok {
				return fmt.Errorf("compiler: %s is reached through the indirection chain %s -> %s; only one level of indirection is supported", ref.Name, inner.Name, def.Name)
			}
		}
		af, ok := a.affineOf(sub, loops)
		if !ok {
			return fmt.Errorf("compiler: indirection array %s subscript %d not affine (%s)", def.Name, i, sub)
		}
		dim, _, err := dimOf(af, loops)
		if err != nil {
			return err
		}
		dims[i] = dim
	}
	acc := Read
	if isWrite {
		acc = ReadWrite // conservative: indirect writes scatter
	}
	a.record(&DescSpec{Data: ref.Name, Indir: def.Name, Section: dims, Access: acc})
	return nil
}

// affineOf classifies e as coef*v + off over the loop variables; also
// folds the special flattened-nest pattern (i*c + k, with inner loop k
// spanning a dense range of width c) into a single affine range over a
// synthetic combined section, which dimOf resolves.
func (a *analyzer) affineOf(e lang.Expr, loops []*loopCtx) (affine, bool) {
	switch x := e.(type) {
	case *lang.Num:
		return affine{off: x}, true
	case *lang.Ident:
		for _, lc := range loops {
			if lc.v == x.Name {
				return affine{v: x.Name, coef: 1, off: &lang.Num{Value: 0}}, true
			}
		}
		return affine{off: x}, true
	case *lang.BinOp:
		l, okL := a.affineOf(x.L, loops)
		r, okR := a.affineOf(x.R, loops)
		if !okL || !okR {
			return affine{}, false
		}
		switch x.Op {
		case "+", "-":
			if l.v != "" && r.v != "" && l.v != r.v {
				// Two loop variables: the flattened-nest pattern is
				// handled by dimOf via a marker (coef of the inner var
				// must be 1 and the outer coef equals the inner width) —
				// represent as a two-var affine.
				return a.flatten(x, l, r, loops)
			}
			v := l.v
			coef := l.coef
			if v == "" {
				v, coef = r.v, r.coef
				if x.Op == "-" {
					coef = -coef
				}
			} else if r.v == v {
				if x.Op == "+" {
					coef += r.coef
				} else {
					coef -= r.coef
				}
			}
			return affine{v: v, coef: coef, off: &lang.BinOp{Op: x.Op, L: l.off, R: r.off}}, true
		case "*":
			// One side must be loop invariant and constant-evaluable at
			// bind time; fold symbolically.
			if l.v == "" {
				return affine{v: r.v, coef: r.coef * constOr1(l.off), off: &lang.BinOp{Op: "*", L: l.off, R: r.off}}, r.v == "" || isConst(l.off)
			}
			if r.v == "" {
				return affine{v: l.v, coef: l.coef * constOr1(r.off), off: &lang.BinOp{Op: "*", L: l.off, R: r.off}}, isConst(r.off)
			}
			return affine{}, false
		}
	}
	return affine{}, false
}

// flatten handles sub = outer*width + inner (a dense flattened nest):
// when the inner loop spans exactly [base, base+width-1] with stride 1,
// the combined subscript is dense over
// [outerLo*width+base : outerHi*width+base+width-1].
func (a *analyzer) flatten(e *lang.BinOp, l, r affine, loops []*loopCtx) (affine, bool) {
	if e.Op != "+" {
		return affine{}, false
	}
	// Identify which side is the scaled outer variable.
	outer, inner := l, r
	if outer.coef == 1 && inner.coef > 1 {
		outer, inner = inner, outer
	}
	if inner.coef != 1 || outer.coef <= 1 {
		return affine{}, false
	}
	var innerLoop, outerLoop *loopCtx
	for _, lc := range loops {
		if lc.v == inner.v {
			innerLoop = lc
		}
		if lc.v == outer.v {
			outerLoop = lc
		}
	}
	if innerLoop == nil || outerLoop == nil || innerLoop.step != 1 {
		return affine{}, false
	}
	// Inner width must equal the outer coefficient: hi-lo+1 == coef.
	width, ok := constRange(innerLoop)
	if !ok || width != outer.coef {
		return affine{}, false
	}
	// Result: dense over the outer variable with synthetic coef=width
	// and the inner's range folded into the offset; dimOf expands it.
	off := &lang.BinOp{Op: "+",
		L: &lang.BinOp{Op: "+", L: outer.off, R: inner.off},
		R: innerLoop.lo}
	return affine{v: outer.v, coef: width, off: off, flat: true}, true
}

// dimOf converts an affine subscript to a symbolic section dimension
// over its loop's range, reporting whether the subscript densely covers
// the dimension (needed for WRITE_ALL).
func dimOf(af affine, loops []*loopCtx) (DimSpec, bool, error) {
	if af.v == "" {
		return DimSpec{Lo: af.off, Hi: af.off, Stride: 1}, false, nil
	}
	var lc *loopCtx
	for _, l := range loops {
		if l.v == af.v {
			lc = l
		}
	}
	if lc == nil {
		return DimSpec{}, false, fmt.Errorf("compiler: loop variable %s not in scope", af.v)
	}
	if af.coef < 0 {
		return DimSpec{}, false, fmt.Errorf("compiler: negative subscript coefficient for %s", af.v)
	}
	lo := scale(lc.lo, af.coef, af.off)
	// The flattened pattern (coef == inner width folded by flatten)
	// produces a dense range ending at coef*hi+off+coef-1; a plain
	// strided subscript ends at coef*hi+off.
	var hi lang.Expr
	stride := af.coef * lc.step
	dense := af.coef == 1 && lc.step == 1
	if af.coef > 1 && isFlattened(af) {
		hi = simplify(&lang.BinOp{Op: "+", L: scale(lc.hi, af.coef, af.off), R: &lang.Num{Value: float64(af.coef - 1)}})
		stride = 1
		dense = true
	} else {
		hi = scale(lc.hi, af.coef, af.off)
	}
	return DimSpec{Lo: lo, Hi: hi, Stride: stride}, dense, nil
}

// isFlattened marks affine values produced by flatten (dense multi-loop
// collapses); plain strided subscripts keep their own coefficient.
func isFlattened(af affine) bool { return af.flat }

// scale builds coef*loopBound + off symbolically, folding coef == 1 and
// simplifying constant subexpressions for readable output.
func scale(bound lang.Expr, coef int, off lang.Expr) lang.Expr {
	scaled := bound
	if coef != 1 {
		scaled = &lang.BinOp{Op: "*", L: &lang.Num{Value: float64(coef)}, R: bound}
	}
	off = simplify(off)
	if isZero(off) {
		return simplify(scaled)
	}
	return simplify(&lang.BinOp{Op: "+", L: scaled, R: off})
}

// simplify folds constant arithmetic and drops additive/multiplicative
// identities so emitted section bounds read like Figure 2 rather than
// like the raw analysis trees.
func simplify(e lang.Expr) lang.Expr {
	b, ok := e.(*lang.BinOp)
	if !ok {
		return e
	}
	l := simplify(b.L)
	r := simplify(b.R)
	ln, lNum := l.(*lang.Num)
	rn, rNum := r.(*lang.Num)
	if lNum && rNum {
		switch b.Op {
		case "+":
			return &lang.Num{Value: ln.Value + rn.Value}
		case "-":
			return &lang.Num{Value: ln.Value - rn.Value}
		case "*":
			return &lang.Num{Value: ln.Value * rn.Value}
		case "/":
			if rn.Value != 0 {
				return &lang.Num{Value: ln.Value / rn.Value}
			}
		}
	}
	switch b.Op {
	case "+":
		if lNum && ln.Value == 0 {
			return r
		}
		if rNum && rn.Value == 0 {
			return l
		}
		// (x + c1) + c2 -> x + (c1+c2)
		if rNum {
			if lb, ok := l.(*lang.BinOp); ok {
				if lc, ok2 := lb.R.(*lang.Num); ok2 && (lb.Op == "+" || lb.Op == "-") {
					c := lc.Value
					if lb.Op == "-" {
						c = -c
					}
					return simplify(&lang.BinOp{Op: "+", L: lb.L, R: &lang.Num{Value: c + rn.Value}})
				}
			}
		}
	case "-":
		if rNum && rn.Value == 0 {
			return l
		}
	case "*":
		if lNum && ln.Value == 1 {
			return r
		}
		if rNum && rn.Value == 1 {
			return l
		}
		if (lNum && ln.Value == 0) || (rNum && rn.Value == 0) {
			return &lang.Num{Value: 0}
		}
	}
	// x + -c -> x - c for readability.
	if b.Op == "+" && rNum && rn.Value < 0 {
		return &lang.BinOp{Op: "-", L: l, R: &lang.Num{Value: -rn.Value}}
	}
	return &lang.BinOp{Op: b.Op, L: l, R: r}
}

func isZero(e lang.Expr) bool {
	n, ok := e.(*lang.Num)
	return ok && n.Value == 0
}

func isConst(e lang.Expr) bool {
	_, ok := e.(*lang.Num)
	return ok
}

func constOr1(e lang.Expr) int {
	if n, ok := e.(*lang.Num); ok {
		return int(n.Value)
	}
	return 1
}

// constRange returns the width of a loop with literal bounds.
func constRange(lc *loopCtx) (int, bool) {
	lo, okL := lc.lo.(*lang.Num)
	hi, okH := lc.hi.(*lang.Num)
	if !okL || !okH {
		return 0, false
	}
	return int(hi.Value-lo.Value) + 1, true
}
