package flow

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"overd/internal/grid"
	"overd/internal/machine"
	"overd/internal/par"
)

// splitAlong cuts box into n slabs along direction d.
func splitAlong(box grid.IBox, d, n int) []grid.IBox {
	lo := [3]int{box.ILo, box.JLo, box.KLo}[d]
	hi := [3]int{box.IHi, box.JHi, box.KHi}[d]
	out := make([]grid.IBox, n)
	for s := range out {
		sb := box
		a, b := lo+s*(hi-lo+1)/n, lo+(s+1)*(hi-lo+1)/n-1
		switch d {
		case 0:
			sb.ILo, sb.IHi = a, b
		case 1:
			sb.JLo, sb.JHi = a, b
		default:
			sb.KLo, sb.KHi = a, b
		}
		out[s] = sb
	}
	return out
}

// TestPipelinedADIBitIdentical runs SolveADI on one block and on the same
// data split into 2- and 3-rank chains along each direction in turn, and
// requires every owned ΔQ to be equal in bits: the (c', d') and x carried
// across a subdomain boundary are the doubles the single block keeps in
// registers, so implicitness across subdomains (paper §2.1) is exact, not
// to round-off. The body grid is periodic in i, so its i splits also cover
// the explicit wrap seam next to a pipelined boundary. TestKernelEquivalence
// runs an isolated block and never reaches the pipelined path.
func TestPipelinedADIBitIdentical(t *testing.T) {
	const dt = 0.01
	for _, tc := range equivCases() {
		if !strings.Contains(tc.name, "3d") {
			continue
		}
		// Single block: Q, grid speeds and masks from buildEquivBlock; RHS
		// and the spectral radii (what the smoothing term reads) from a
		// fixed RNG, zero RHS where ComputeRHS would have left zero.
		one := buildEquivBlock(tc, 42)
		rng := rand.New(rand.NewSource(43))
		for p := 0; p < one.NPointsLocal(); p++ {
			for c := 0; c < 5; c++ {
				if one.scr.upd[p] {
					one.RHS[5*p+c] = 0.1 * rng.NormFloat64()
				}
			}
			for d := 0; d < 3; d++ {
				one.scr.sig[d][p] = 0.5 + rng.Float64()
			}
		}
		runSerial(t, func(r *par.Rank) { one.SolveADI(r, dt) })

		for d := 0; d < 3; d++ {
			for _, nr := range []int{2, 3} {
				for _, procs := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/dir%d/ranks%d/procs%d", tc.name, d, nr, procs), func(t *testing.T) {
						old := runtime.GOMAXPROCS(procs)
						defer runtime.GOMAXPROCS(old)
						boxes := splitAlong(one.Own, d, nr)
						ranks := make([]int, nr)
						for i := range ranks {
							ranks[i] = i
						}
						blocks := BuildBlocks(one.G, boxes, ranks, one.FS)
						for _, b := range blocks {
							b.ensureScratch()
							eachOwned(b, one, func(p, p1 int) {
								copy(b.Q[5*p:5*p+5], one.Q[5*p1:5*p1+5])
								copy(b.RHS[5*p:5*p+5], one.RHS[5*p1:5*p1+5])
								b.XT[p], b.YT[p], b.ZT[p] = one.XT[p1], one.YT[p1], one.ZT[p1]
								b.scr.upd[p] = one.scr.upd[p1]
								for dd := 0; dd < 3; dd++ {
									b.scr.sig[dd][p] = one.scr.sig[dd][p1]
								}
							})
						}
						par.NewWorld(nr, machine.SP2()).Run(func(r *par.Rank) {
							blocks[r.ID].SolveADI(r, dt)
						})
						for bi, b := range blocks {
							eachOwned(b, one, func(p, p1 int) {
								for c := 0; c < 5; c++ {
									got, want := b.DQ[5*p+c], one.DQ[5*p1+c]
									if math.Float64bits(got) != math.Float64bits(want) {
										t.Fatalf("block %d point %d comp %d: pipelined %v (%#016x) != single block %v (%#016x)",
											bi, p, c, got, math.Float64bits(got), want, math.Float64bits(want))
									}
								}
							})
						}
					})
				}
			}
		}
	}
}

// eachOwned calls fn with the local index of every owned point of b and the
// local index of the same grid point in the whole-grid block one.
func eachOwned(b, one *Block, fn func(p, p1 int)) {
	for k := b.Own.KLo; k <= b.Own.KHi; k++ {
		for j := b.Own.JLo; j <= b.Own.JHi; j++ {
			for i := b.Own.ILo; i <= b.Own.IHi; i++ {
				fn(b.LIdx(b.Local(i, j, k)), one.LIdx(one.Local(i, j, k)))
			}
		}
	}
}

// TestPipeMsgMismatchPanics checks the receiver's guard on the envelope's
// direction and batch: a boundary message for another batch must not be
// consumed as this one's carry.
func TestPipeMsgMismatchPanics(t *testing.T) {
	b := buildEquivBlock(equivCases()[3], 1)
	runSerial(t, func(r *par.Rank) {
		pm := b.getPipe(r)
		pm.Dir, pm.Batch = 1, 2
		r.Send(r.ID, par.TagPipeline, pm, 8)
		defer func() {
			msg := fmt.Sprint(recover())
			for _, want := range []string{"rank 0", "direction 1 batch 3", "got direction 1 batch 2"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q does not name %q", msg, want)
				}
			}
		}()
		b.recvPipe(r, r.ID, 1, 3)
	})
}
