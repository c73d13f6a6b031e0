// Package overd is a Go reproduction of the parallel dynamic overset-grid
// system of Wissink & Meakin, "On Parallel Implementations of Dynamic
// Overset Grid Methods" (SC 1997): a structured Chimera flow solver
// (OVERFLOW analog) with diagonalized approximate-factorization implicit
// time stepping, a distributed domain-connectivity solution (DCF3D analog)
// with asynchronous donor searches, forwarding and nth-level restart,
// six-degree-of-freedom grid motion, the paper's static and dynamic load
// balancing schemes (Algorithms 1 and 2), and the §5 adaptive Cartesian
// scheme with the grouping strategy (Algorithm 3).
//
// Every run executes the real algorithms — real grids, real implicit CFD
// arithmetic, real donor searches, real message passing between goroutine
// "processors" — while virtual clocks measure them against calibrated
// models of the paper's machines (IBM SP2, IBM SP, Cray YMP/864), so the
// published parallel-performance experiments can be regenerated on modern
// hardware. See DESIGN.md for the substitution rationale and EXPERIMENTS.md
// for paper-versus-measured results.
//
// Quick start:
//
//	cfg := overd.Config{
//		Case:    overd.OscillatingAirfoil(1.0),
//		Nodes:   12,
//		Machine: overd.SP2(),
//		Steps:   10,
//		Fo:      math.Inf(1), // static load balancing only
//	}
//	res, err := overd.Run(cfg)
//	fmt.Println(res.MflopsPerNode(), res.PctConnect())
package overd

import (
	"overd/internal/adapt"
	"overd/internal/balance"
	"overd/internal/cases"
	"overd/internal/core"
	"overd/internal/fault"
	"overd/internal/flow"
	"overd/internal/geom"
	"overd/internal/machine"
	"overd/internal/metrics"
	"overd/internal/trace"
)

// Machine is a performance model of one of the paper's computers.
type Machine = machine.Model

// SP2 returns the NASA Ames IBM SP2 model (POWER2 nodes, 40 MB/s switch).
func SP2() Machine { return machine.SP2() }

// SP returns the CEWES IBM SP model (P2SC nodes, 110 MB/s switch).
func SP() Machine { return machine.SP() }

// YMP864 returns the single-processor Cray YMP/864 model (Table 6 baseline).
func YMP864() Machine { return machine.YMP864() }

// C90 returns the Cray C90 single-head model.
func C90() Machine { return machine.C90() }

// MachineByName resolves "SP2", "SP", "YMP" or "C90".
func MachineByName(name string) (Machine, error) { return machine.ByName(name) }

// Case is a complete moving-body overset problem: grid system, connectivity
// configuration, motion, and flow conditions.
type Case = cases.Case

// OscillatingAirfoil builds the paper's §4.1 problem: a NACA 0012 airfoil
// pitching α(t) = 5°·sin(πt/2) under three overset grids (64K composite
// points at scale 1, IGBP ratio ≈ 44e-3), M∞ = 0.8, Re = 1e6.
func OscillatingAirfoil(scale float64) *Case { return cases.OscAirfoil(scale) }

// DescendingDeltaWing builds the paper's §4.2 problem: four grids, ~1M
// composite points at scale 1, IGBP ratio ≈ 33e-3, descent at M = 0.064,
// viscous in all directions, no turbulence model.
func DescendingDeltaWing(scale float64) *Case { return cases.DeltaWing(scale) }

// StoreSeparation builds the paper's §4.3 problem: sixteen grids (ten
// store, three wing/pylon, three Cartesian backgrounds), ~0.81M composite
// points at scale 1, IGBP ratio ≈ 66e-3, M∞ = 1.6 with Baldwin-Lomax on
// the curvilinear grids and a prescribed separation trajectory.
func StoreSeparation(scale float64) *Case { return cases.StoreSep(scale) }

// StoreSeparationFree is StoreSeparation with the store's trajectory
// computed from integrated aerodynamic loads through the 6-DOF model
// rather than prescribed (the paper notes the free motion changes parallel
// performance negligibly).
func StoreSeparationFree(scale float64) *Case { return cases.StoreSepFree(scale) }

// Config selects the case, processor count, machine model, step count and
// load-balancing behavior of a run.
type Config = core.Config

// Result carries a run's measured statistics: virtual wall time, per-phase
// breakdown, Mflops/node, %-time in the connectivity solution, and the
// final processor distribution.
type Result = core.Result

// StepStats is the per-timestep phase breakdown.
type StepStats = core.StepStats

// Run executes a case on the simulated machine. It is deterministic: the
// same configuration produces bit-identical virtual times and flow fields.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// Storage keeps what a run builds by first use — the memory of its blocks,
// its ranks' solver buffers and message envelopes — owned by the caller and
// handed to consecutive runs through Config.Storage (or Options.Storage for
// a sweep) so each reuses what the last is done with. It is a host-side
// resource control like Config.Workers: nil or any Storage yields
// bit-identical results. It keeps what it is given until it is dropped; it
// is meant to live as long as one sweep, or one busy stretch of a job server.
type Storage = core.Storage

// NewStorage returns an empty Storage.
func NewStorage() *Storage { return core.NewStorage() }

// BalancerNames lists the registered load balancers ("static", "dynamic",
// "sfc", "diffusive", ...) in sorted order; any of them is a valid
// Config.Balancer value.
func BalancerNames() []string { return balance.Names() }

// ValidateBalancer reports whether name selects a registered balancer and
// whether it is consistent with the given load-balance factor fo (e.g.
// "dynamic" needs a finite fo > 0, "static" rejects one). An empty name is
// always valid: Run resolves it from fo.
func ValidateBalancer(name string, fo float64) error {
	return balance.ValidateSelection(name, fo)
}

// InterruptError is the error Run returns when Config.Interrupt stopped the
// run at a step boundary; Unwrap exposes the hook's error so callers can
// classify the cause (e.g. context.Canceled vs context.DeadlineExceeded).
type InterruptError = core.InterruptError

// EstimateSerialTime models the single-processor execution time of the
// given floating-point workload on a serial machine (the Cray YMP baseline
// of Table 6).
func EstimateSerialTime(flops float64, m Machine) float64 {
	return core.EstimateSerialTime(flops, m)
}

// TraceRecorder collects per-rank virtual-time events when attached through
// Config.Trace: every compute interval, message, wait and barrier on every
// rank. After the run it provides the wait/idle decomposition
// (TraceRecorder.Summarize), the critical path through the message/barrier
// dependency graph (TraceRecorder.CriticalPath), and Chrome trace-event
// JSON export for chrome://tracing or Perfetto (WriteChromeTrace). A nil
// Config.Trace records nothing and leaves virtual times bit-identical.
type TraceRecorder = trace.Recorder

// TraceSummary is a recorded run's per-rank busy/wait decomposition.
type TraceSummary = trace.Summary

// TraceCriticalPath is the dependency chain that set a run's makespan.
type TraceCriticalPath = trace.CriticalPath

// NewTraceRecorder returns an empty recorder ready to set as Config.Trace.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// MetricsRegistry is a deterministic registry of typed counters, gauges and
// histograms keyed by rank/phase/grid, populated by the runtime and
// numerical layers when attached through Config.Metrics and exportable as
// Prometheus text (WritePrometheus) or JSON (WriteJSON). A nil
// Config.Metrics records nothing and leaves virtual times bit-identical.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry ready to set as
// Config.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// FaultPlan is a deterministic fault schedule perturbing a run: per-rank
// compute stragglers, degraded links, seeded message loss and scheduled
// rank crashes, all expressed against the virtual clock (set Config.Faults;
// see package fault). A run under a plan with crashes recovers through
// periodic checkpoints (Config.CheckpointEvery) — the crashed rank's work
// is re-spread over the survivors and the recovery cost lands in the
// Result. A nil plan leaves the run bit-identical to an unfaulted one.
type FaultPlan = fault.Plan

// FaultStraggler, FaultLink, FaultLoss and FaultCrash are the plan's
// building blocks.
type (
	FaultStraggler = fault.Straggler
	FaultLink      = fault.LinkFault
	FaultLoss      = fault.Loss
	FaultCrash     = fault.Crash
)

// ParseFaultPlan decodes and validates a JSON fault plan.
func ParseFaultPlan(data []byte) (*FaultPlan, error) { return fault.ParsePlan(data) }

// LoadFaultPlan reads, decodes and validates a JSON fault-plan file.
func LoadFaultPlan(path string) (*FaultPlan, error) { return fault.LoadPlan(path) }

// SampleSpec selects field and surface extraction from a run's final
// solution (set Config.Sample).
type SampleSpec = core.SampleSpec

// FieldSample is one sampled flow state (position, density, pressure,
// Mach number, Chimera iblank state).
type FieldSample = core.FieldSample

// SurfaceSample is one wall point with its pressure coefficient.
type SurfaceSample = core.SurfaceSample

// Vec3 is a world-frame position or direction.
type Vec3 = geom.Vec3

// Box is an axis-aligned bounding box.
type Box = geom.Box

// Freestream is the nondimensional far-field flow state.
type Freestream = flow.Freestream

// The §5 adaptive Cartesian scheme: off-body systems of seven-parameter
// Cartesian bricks with proximity/error-driven refinement, search-free
// connectivity, and Algorithm-3 grouping onto nodes.

// AdaptiveConfig controls off-body Cartesian system generation.
type AdaptiveConfig = adapt.Config

// AdaptiveSystem is a generated off-body brick system.
type AdaptiveSystem = adapt.System

// AdaptiveRunner advances a real flow solution over an adaptive system with
// the coarse-grained group-parallel strategy of §5.
type AdaptiveRunner = adapt.Runner

// GenerateAdaptive builds an off-body Cartesian system for the given
// desired-refinement-level indicator.
func GenerateAdaptive(cfg AdaptiveConfig, want func(p Vec3) int) *AdaptiveSystem {
	return adapt.Generate(cfg, want)
}

// ProximityIndicator returns the §5 initial refinement rule: finest level
// inside the near-body bounds, decaying with distance.
func ProximityIndicator(near Box, maxLevel int) func(Vec3) int {
	return adapt.ProximityIndicator(near, maxLevel)
}

// NewAdaptiveRunner groups an adaptive system over nodes (Algorithm 3 when
// grouping is true; round-robin baseline otherwise) and prepares the
// coarse-grain parallel solver.
func NewAdaptiveRunner(sys *AdaptiveSystem, nodes int, fs Freestream, grouping bool) (*AdaptiveRunner, error) {
	return adapt.NewRunner(sys, nodes, fs, grouping)
}

// DecompositionSurface returns the total subdomain surface-point count of
// the static partition of a case over the given node count, with either the
// prime-factor minimal-surface rule or 1-D slabs — the communication-surface
// measure the paper's Fig. 4 subdivision minimizes.
func DecompositionSurface(c *Case, nodes int, slabs bool) (int, error) {
	plan, err := balance.Static(c.GridSizes(), nodes)
	if err != nil {
		return 0, err
	}
	if slabs {
		balance.SubdividePlanSlabs(plan, c.GridDims())
	} else {
		balance.SubdividePlan(plan, c.GridDims())
	}
	total := 0
	for _, p := range plan.Parts {
		total += p.Box.SurfacePoints()
	}
	return total, nil
}
