// The paper's kernels, written in the kernel description language:
// moldyn's ComputeForces (Figure 1) with its integration and list
// rebuild, nbf's force loop and integration (§5.2), the pipelined force
// reduction (Figure 2), and the two apps beyond the paper, spmv and
// unstruct. The TreadMarks backends bind (MustBind) the descriptors
// compiled from them into every Validate call they pass to the runtime.
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
// accumulation array of the transformed program (Figure 2). integrate
// advances the processor's own molecules; buildlist is the list
// rebuild's copy of every coordinate into the private xl.
const MoldynKernel = `
program moldyn
shared real x(3, n)
shared real forces(3, n)
shared integer interaction_list(2, maxinter)
private real local_forces(3, n)
private real drift(3, n)
private real xl(3, n)

do step = 1, nsteps
  call buildlist()
  call computeforces()
  call integrate()
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

subroutine integrate()
do i = mylo, myhi
  do d = 1, 3
    x(d, i) = x(d, i) + dt * forces(d, i) + drift(d, i)
  enddo
enddo
end

subroutine buildlist()
do i = 1, n
  do d = 1, 3
    xl(d, i) = x(d, i)
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

// SpmvKernel is spmv's sweep: the product of the processor's own rows
// with x, reached through column indices cols(k, i), and the refresh of
// the processor's own block of x from y. The matrix values are private:
// each processor reads its rows' values from its own copy.
const SpmvKernel = `
program spmv
shared real x(n)
shared real y(n)
shared integer cols(nnzrow, n)
private real vals(nnzrow, n)

do step = 1, nsteps
  call matvec()
  call refresh()
enddo
end

subroutine matvec()
do i = mylo, myhi
  s = 0
  do k = 1, nnzrow
    c = cols(k, i)
    s = s + vals(k, i) * x(c)
  enddo
  y(i) = s
enddo
end

subroutine refresh()
do i = mylo, myhi
  x(i) = 0.5 * x(i) + 0.5 * y(i)
enddo
end
`

// UnstructKernel is unstruct's step: the sweep over the processor's
// section of the edge list, accumulating each edge's flux into the
// private ly, and the relaxation of the processor's own nodes from y.
const UnstructKernel = `
program unstruct
shared real x(n)
shared real y(n)
shared integer edges(2, nedges)
private real ly(n)
private real drift(n)

do step = 1, nsteps
  call edgeloop()
  call relax()
enddo
end

subroutine edgeloop()
do k = elo, ehi
  a = edges(1, k)
  b = edges(2, k)
  f = x(a) - x(b)
  ly(a) = ly(a) + f
  ly(b) = ly(b) - f
enddo
end

subroutine relax()
do i = mylo, myhi
  x(i) = x(i) + dt * y(i) + drift(i)
enddo
end
`

// Kernel is one bundled kernel: the name cmd/compilekernel -builtin
// takes, and the source.
type Kernel struct{ Name, Src string }

// Kernels lists the bundled kernels in a fixed order, the order in which
// MustBind numbers their INDIRECT descriptors.
var Kernels = []Kernel{
	{"moldyn", MoldynKernel},
	{"nbf", NBFKernel},
	{"reduction", ReductionKernel},
	{"spmv", SpmvKernel},
	{"unstruct", UnstructKernel},
}

// compiled is one bundled subroutine's access summary with the schedule
// number of each descriptor: its own for an INDIRECT one, 0 for a
// DIRECT one (Validate reads it only for INDIRECT descriptors).
type compiled struct {
	sum   *Summary
	sched []int
}

// bundled holds every subroutine of the bundled kernels, compiled and
// numbered, keyed by kernel source and subroutine name, computed on
// first use.
var bundled = sync.OnceValue(func() map[[2]string]compiled {
	subs := map[[2]string]compiled{}
	next := 1
	for _, k := range Kernels {
		prog, err := lang.Parse(k.Src)
		if err != nil {
			panic(err)
		}
		for _, s := range prog.Subs {
			sum, err := Analyze(prog, s.Name)
			if err != nil {
				panic(err)
			}
			sched := make([]int, len(sum.Descs))
			for i, d := range sum.Descs {
				if d.Indirect() {
					sched[i], next = next, next+1
				}
			}
			subs[[2]string{k.Src, s.Name}] = compiled{sum, sched}
		}
	}
	return subs
})

// MustBind binds, in order, every descriptor the compiler emits for
// subroutine sub of src, one of the bundled kernels above, into be, each
// INDIRECT one under its own schedule number. The kernels are parsed and
// analysed once per process. It panics on an error: the kernels are
// constants that this package's tests compile, and a backend binding
// its own kernel supplies every array, size and symbol the kernel names.
func MustBind(src, sub string, be *BindEnv) []core.Desc {
	c, ok := bundled()[[2]string{src, sub}]
	if !ok {
		panic(fmt.Sprintf("compiler: no subroutine %q in the bundled kernel", sub))
	}
	descs := make([]core.Desc, len(c.sum.Descs))
	for i, spec := range c.sum.Descs {
		d, err := bind(spec, be)
		if err != nil {
			panic(err)
		}
		d.Sched = c.sched[i]
		descs[i] = d
	}
	return descs
}
