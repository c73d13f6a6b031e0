package flow

import (
	"testing"

	"overd/internal/grid"
	"overd/internal/gridgen"
	"overd/internal/machine"
	"overd/internal/par"
)

// benchCases are the blocks the kernel benchmarks run on: the 2-D airfoil
// O-grid (4K points, 3-point k lines) and the delta-wing body grid at scale
// 0.1 as one block, viscous in all directions — what the benchmark of
// record's flow.adi_ns_per_pt probe uses — so the k sweep walks strided lines.
var benchCases = []struct {
	name  string
	build func() *Block
}{
	{"airfoil2d", func() *Block {
		blk, _ := allocBlock()
		return blk
	}},
	{"wing3d", func() *Block {
		g := gridgen.EllipsoidGrid(0, "wing", 52, 14, 36, 2.4, 0.22, 1.5, 3.0)
		b := BuildBlocks(g, []grid.IBox{g.Full()}, []int{0}, Freestream{Mach: 0.3, Re: 5e5})[0]
		b.SetViscousDirs([3]bool{true, true, true})
		return b
	}},
}

// BenchmarkFlowStep measures a full implicit timestep.
func BenchmarkFlowStep(b *testing.B) {
	for _, bc := range benchCases {
		b.Run(bc.name, func(b *testing.B) {
			blk := bc.build()
			b.ResetTimer()
			par.NewWorld(1, machine.SP2()).Run(func(r *par.Rank) {
				for i := 0; i < b.N; i++ {
					blk.FlowStep(r, 0.01)
				}
			})
			b.ReportMetric(float64(blk.NOwned()), "points")
		})
	}
}

// BenchmarkComputeRHS measures the explicit residual alone.
func BenchmarkComputeRHS(b *testing.B) {
	for _, bc := range benchCases {
		b.Run(bc.name, func(b *testing.B) {
			blk := bc.build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk.ComputeRHS(0.01)
			}
		})
	}
}

// BenchmarkSolveADI measures the factored implicit solve alone.
func BenchmarkSolveADI(b *testing.B) {
	for _, bc := range benchCases {
		b.Run(bc.name, func(b *testing.B) {
			blk := bc.build()
			blk.ComputeRHS(0.01)
			b.ResetTimer()
			par.NewWorld(1, machine.SP2()).Run(func(r *par.Rank) {
				for i := 0; i < b.N; i++ {
					blk.SolveADI(r, 0.01)
				}
			})
		})
	}
}

// BenchmarkBaldwinLomax measures the turbulence model pass.
func BenchmarkBaldwinLomax(b *testing.B) {
	blk, _ := allocBlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.ComputeTurbulence()
	}
}
