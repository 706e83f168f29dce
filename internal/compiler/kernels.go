// The paper's kernels, written in the kernel description language:
// moldyn's ComputeForces (Figure 1), nbf's force loop and integration
// (§5.2), and the pipelined force reduction (Figure 2). The TreadMarks
// backends bind (MustBind) the descriptors compiled from them into the
// Validate calls they pass to the runtime.
package compiler

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/lang"
)

// MoldynKernel is the moldyn main program and ComputeForces subroutine
// of Figure 1, with the per-processor section bounds (mylo, myhi) made
// explicit. x is the coordinate array, forces the force array,
// interaction_list the indirection array, and local_forces the private
// accumulation array of the transformed program (Figure 2).
const MoldynKernel = `
program moldyn
shared real x(3, n)
shared real forces(3, n)
shared integer interaction_list(2, maxinter)
private real local_forces(3, n)

do step = 1, nsteps
  call computeforces()
enddo
end

subroutine computeforces()
do i = mylo, myhi
  n1 = interaction_list(1, i)
  n2 = interaction_list(2, i)
  do d = 1, 3
    f = x(d, n1) - x(d, n2)
    local_forces(d, n1) = local_forces(d, n1) + f
    local_forces(d, n2) = local_forces(d, n2) - f
  enddo
enddo
end
`

// NBFKernel is nbf's time step: the force loop over each molecule's ppm
// partners, column i of the partner list, and the integration of the
// processor's own block.
const NBFKernel = `
program nbf
shared real x(n)
shared real forces(n)
shared integer partners(ppm, n)
private real local_forces(n)

call forceloop()
call integrate()
end

subroutine forceloop()
do i = mylo, myhi
  do k = 1, ppm
    j = partners(k, i)
    f = x(i) - x(j)
    local_forces(i) = local_forces(i) + f
    local_forces(j) = local_forces(j) - f
  enddo
enddo
end

subroutine integrate()
do i = mylo, myhi
  x(i) = x(i) + forces(i)
enddo
end
`

// ReductionKernel is the pipelined force-reduction stage of the
// transformed programs: the stage overwrites (first writer) or
// read-modify-writes (later writers) an entire block — the access
// pattern that earns WRITE_ALL / READ&WRITE_ALL tags.
const ReductionKernel = `
program reduction
shared real forces(n)
private real local_forces(n)

call firststage()
call laterstage()
end

subroutine firststage()
do j = blo, bhi
  forces(j) = local_forces(j)
enddo
end

subroutine laterstage()
do j = blo, bhi
  forces(j) = forces(j) + local_forces(j)
enddo
end
`

// TwoLevelKernel exercises multi-level indirection (§3.3: "naturally
// extends to multiple levels"): data is reached through an index array
// that is itself indexed through another.
const TwoLevelKernel = `
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

// bundled holds the access summary of every subroutine of the bundled
// kernels, keyed by kernel source and subroutine name, computed on first
// use.
var bundled = sync.OnceValue(func() map[[2]string]*Summary {
	sums := map[[2]string]*Summary{}
	for _, src := range []string{MoldynKernel, NBFKernel, ReductionKernel, TwoLevelKernel} {
		prog, err := lang.Parse(src)
		if err != nil {
			panic(err)
		}
		for _, s := range prog.Subs {
			if sums[[2]string{src, s.Name}], err = Analyze(prog, s.Name); err != nil {
				panic(err)
			}
		}
	}
	return sums
})

// MustBind binds, in order, every descriptor the compiler emits for
// subroutine sub of src, one of the bundled kernels above, into be. The
// kernels are parsed and analysed once per process. It panics on an
// error: the kernels are constants that this package's tests compile,
// and a backend binding its own kernel supplies every array and symbol
// the kernel names.
func MustBind(src, sub string, be *BindEnv) []core.Desc {
	sum := bundled()[[2]string{src, sub}]
	if sum == nil {
		panic(fmt.Sprintf("compiler: no subroutine %q in the bundled kernel", sub))
	}
	descs := make([]core.Desc, len(sum.Descs))
	for i, spec := range sum.Descs {
		d, err := Bind(spec, be)
		if err != nil {
			panic(err)
		}
		descs[i] = d
	}
	return descs
}
