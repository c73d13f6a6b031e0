package overd

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"overd/internal/report"
)

// Options controls an experiment reproduction run.
type Options struct {
	// Scale multiplies every case's gridpoint budget (1 = paper size).
	Scale float64
	// Steps is the number of measured timesteps per run (the paper's
	// statistics are steady-state averages; restart-mode connectivity
	// dominates from step 2 on).
	Steps int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Metrics, when non-nil, is attached to every run (Config.Metrics).
	// Each run resets it, so after a table sweep it holds the last run's
	// series; attaching it never changes virtual times or table values.
	Metrics *MetricsRegistry
	// Storage, when non-nil, is the slab store every run draws on
	// (Config.Storage), so that sweeps run one after another reuse one
	// another's block memory. Nil gives each RunTableN / RunBalancerSweep
	// call a store of its own for its rows, and EmitTablesJSON one for the
	// tables it runs. It never changes a table value.
	Storage *Storage
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Steps <= 0 {
		o.Steps = 4
	}
	if o.Storage == nil {
		o.Storage = NewStorage()
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// ModuleSpeedup is one point of the paper's per-module speedup figures
// (Figs. 5, 7, 10, 11): the flow solver (OVERFLOW), connectivity (DCF3D)
// and combined speedups relative to the experiment's base node count.
type ModuleSpeedup struct {
	Nodes    int
	Flow     float64
	Connect  float64
	Combined float64
}

// PerfRow is one row of the paper's performance tables (1, 3, 4): per-node
// Mflop rate, parallel speedup, and connectivity share, per machine.
type PerfRow struct {
	Nodes       int
	PtsPerNode  int
	MflopsSP2   float64
	MflopsSP    float64
	SpeedupSP2  float64
	SpeedupSP   float64
	PctDCF3DSP2 float64
	PctDCF3DSP  float64
}

// PerfTable bundles a performance table with its speedup-figure series.
type PerfTable struct {
	Title  string
	Rows   []PerfRow
	FigSP2 []ModuleSpeedup
	FigSP  []ModuleSpeedup
}

// ratio returns num/den, or NaN when the denominator is zero — a baseline
// or module time of zero (degenerate zero-step runs) must not leak an
// untagged Inf/NaN into a speedup column. Renderers show NaN as "—" and
// the JSON emitter nulls it to 0, so degenerate statistics are visible as
// such instead of crashing the encoder or printing "NaN%".
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// fmtStat formats a statistic with the given verb, rendering non-finite
// values (degenerate ratios) as an em dash.
func fmtStat(format string, v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "—"
	}
	return fmt.Sprintf(format, v)
}

// runPerfTable executes a case constructor over node counts on both
// machines and assembles the paper-style table.
func runPerfTable(title string, mk func(float64) *Case, nodes []int, opt Options) (*PerfTable, error) {
	opt = opt.withDefaults()
	t := &PerfTable{Title: title}
	results := map[string][]*Result{}
	for _, m := range []Machine{SP2(), SP()} {
		for _, n := range nodes {
			opt.logf("%s: %s %d nodes...", title, m.Name, n)
			c := mk(opt.Scale)
			res, err := Run(Config{
				Case: c, Nodes: n, Machine: m, Steps: opt.Steps,
				Fo: math.Inf(1), Metrics: opt.Metrics, Storage: opt.Storage,
			})
			if err != nil {
				return nil, fmt.Errorf("%s on %d %s nodes: %w", title, n, m.Name, err)
			}
			results[m.Name] = append(results[m.Name], res)
		}
	}
	base2 := results["SP2"][0]
	baseS := results["SP"][0]
	np := base2.Config.Case.Sys.NPoints()
	for i, n := range nodes {
		r2 := results["SP2"][i]
		rs := results["SP"][i]
		t.Rows = append(t.Rows, PerfRow{
			Nodes:       n,
			PtsPerNode:  np / n,
			MflopsSP2:   r2.MflopsPerNode(),
			MflopsSP:    rs.MflopsPerNode(),
			SpeedupSP2:  ratio(base2.TotalTime, r2.TotalTime),
			SpeedupSP:   ratio(baseS.TotalTime, rs.TotalTime),
			PctDCF3DSP2: r2.PctConnect(),
			PctDCF3DSP:  rs.PctConnect(),
		})
		t.FigSP2 = append(t.FigSP2, ModuleSpeedup{
			Nodes:    n,
			Flow:     ratio(base2.FlowTime, r2.FlowTime),
			Connect:  ratio(base2.ConnectTime, r2.ConnectTime),
			Combined: ratio(base2.TotalTime, r2.TotalTime),
		})
		t.FigSP = append(t.FigSP, ModuleSpeedup{
			Nodes:    n,
			Flow:     ratio(baseS.FlowTime, rs.FlowTime),
			Connect:  ratio(baseS.ConnectTime, rs.ConnectTime),
			Combined: ratio(baseS.TotalTime, rs.TotalTime),
		})
	}
	return t, nil
}

// Table1Nodes are the paper's oscillating-airfoil processor partitions.
var Table1Nodes = []int{6, 9, 12, 18, 24}

// RunTable1 reproduces Table 1 and Figure 5: the 2-D oscillating airfoil
// on 6-24 nodes of the SP2 and SP.
func RunTable1(opt Options) (*PerfTable, error) {
	return runPerfTable("Table 1 (2D oscillating airfoil)", OscillatingAirfoil, Table1Nodes, opt)
}

// Table3Nodes are the paper's delta-wing partitions.
var Table3Nodes = []int{7, 12, 26, 55}

// RunTable3 reproduces Table 3 and Figure 7: the descending delta wing.
func RunTable3(opt Options) (*PerfTable, error) {
	return runPerfTable("Table 3 (descending delta wing)", DescendingDeltaWing, Table3Nodes, opt)
}

// Table4Nodes are the paper's finned-store partitions.
var Table4Nodes = []int{16, 18, 22, 28, 35, 42, 52, 61}

// RunTable4 reproduces Table 4 and Figure 10: the wing/pylon/finned-store
// separation with static load balancing.
func RunTable4(opt Options) (*PerfTable, error) {
	return runPerfTable("Table 4 (finned-store separation)", StoreSeparation, Table4Nodes, opt)
}

// ScaleupRow is one row of Table 2: the airfoil scale-up study.
type ScaleupRow struct {
	Name        string
	Nodes       int
	Points      int
	PtsPerNode  int
	SecStepSP2  float64
	SecStepSP   float64
	PctDCF3DSP2 float64
	PctDCF3DSP  float64
}

// RunTable2 reproduces Table 2: the oscillating-airfoil scale-up study —
// the coarsened (x1/4 points, 3 nodes), original (12 nodes) and refined
// (x4 points, 48 nodes) grids hold gridpoints per node fixed near 5000.
func RunTable2(opt Options) ([]ScaleupRow, error) {
	opt = opt.withDefaults()
	rows := []struct {
		name  string
		scale float64
		nodes int
	}{
		{"Coarsened", 0.25 * opt.Scale, 3},
		{"Original", 1 * opt.Scale, 12},
		{"Refined", 4 * opt.Scale, 48},
	}
	var out []ScaleupRow
	for _, rw := range rows {
		row := ScaleupRow{Name: rw.name, Nodes: rw.nodes}
		for _, m := range []Machine{SP2(), SP()} {
			opt.logf("Table 2: %s on %s...", rw.name, m.Name)
			c := OscillatingAirfoil(rw.scale)
			res, err := Run(Config{Case: c, Nodes: rw.nodes, Machine: m,
				Steps: opt.Steps, Fo: math.Inf(1), Metrics: opt.Metrics, Storage: opt.Storage})
			if err != nil {
				return nil, err
			}
			row.Points = c.Sys.NPoints()
			row.PtsPerNode = row.Points / rw.nodes
			if m.Name == "SP2" {
				row.SecStepSP2 = res.TimePerStep()
				row.PctDCF3DSP2 = res.PctConnect()
			} else {
				row.SecStepSP = res.TimePerStep()
				row.PctDCF3DSP = res.PctConnect()
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// Table5Nodes are the partitions of the dynamic-load-balance comparison.
var Table5Nodes = []int{16, 18, 28, 52}

// Table5Row compares static and dynamic (fo=5) load balancing for the
// store-separation case on the SP2 (Table 5 and Fig. 11).
type Table5Row struct {
	Nodes          int
	PctDCFStatic   float64
	PctDCFDynamic  float64
	DCFSpeedupStat float64
	DCFSpeedupDyn  float64
	// Combined speedups expose the paper's conclusion that the dynamic
	// scheme costs more overall than it saves.
	CombinedStat float64
	CombinedDyn  float64
	FlowStat     float64
	FlowDyn      float64
}

// RunTable5 reproduces Table 5 and Figure 11: static versus dynamic load
// balancing (fo = 5) for the finned-store case on the SP2.
func RunTable5(opt Options) ([]Table5Row, error) {
	opt = opt.withDefaults()
	steps := opt.Steps
	if steps < 6 {
		steps = 6 // the dynamic scheme needs check intervals to fire
	}
	run := func(nodes int, fo float64) (*Result, error) {
		c := StoreSeparation(opt.Scale)
		return Run(Config{Case: c, Nodes: nodes, Machine: SP2(), Steps: steps,
			Fo: fo, CheckInterval: 3, Metrics: opt.Metrics, Storage: opt.Storage})
	}
	var out []Table5Row
	var baseStat, baseDyn *Result
	for _, n := range Table5Nodes {
		opt.logf("Table 5: %d nodes static...", n)
		rs, err := run(n, math.Inf(1))
		if err != nil {
			return nil, err
		}
		opt.logf("Table 5: %d nodes dynamic fo=5...", n)
		rd, err := run(n, 5)
		if err != nil {
			return nil, err
		}
		if baseStat == nil {
			baseStat, baseDyn = rs, rd
		}
		out = append(out, Table5Row{
			Nodes:          n,
			PctDCFStatic:   rs.PctConnect(),
			PctDCFDynamic:  rd.PctConnect(),
			DCFSpeedupStat: ratio(baseStat.ConnectTime, rs.ConnectTime),
			DCFSpeedupDyn:  ratio(baseDyn.ConnectTime, rd.ConnectTime),
			CombinedStat:   ratio(baseStat.TotalTime, rs.TotalTime),
			CombinedDyn:    ratio(baseDyn.TotalTime, rd.TotalTime),
			FlowStat:       ratio(baseStat.FlowTime, rs.FlowTime),
			FlowDyn:        ratio(baseDyn.FlowTime, rd.FlowTime),
		})
	}
	return out, nil
}

// Table5FaultPlan returns the perturbation of the robustness headline
// experiment: rank 1 computes at one third of its rated speed from
// timestep 2 until the end of the run — the virtual-machine analog of a
// node sharing its CPU with a rogue daemon mid-job.
func Table5FaultPlan() *FaultPlan {
	return &FaultPlan{
		Seed:       1,
		Stragglers: []FaultStraggler{{Rank: 1, Factor: 3, FromStep: 2}},
	}
}

// Table5FaultedRow compares how the static and dynamic (fo = 5) load
// balancing schemes absorb a mid-run compute straggler: the slowdown each
// scheme suffers relative to its own clean run, the connectivity share
// under fault, and how often the dynamic scheme repartitioned while
// perturbed. The paper's Table 5 verdict — dynamic balancing costs more
// than it saves — holds for its balanced runs; this sweep probes whether a
// genuinely imbalanced machine changes the answer.
type Table5FaultedRow struct {
	Nodes int
	// SlowdownStat and SlowdownDyn are faulted-over-clean total virtual
	// time under each scheme (1 = the straggler was fully hidden).
	SlowdownStat float64
	SlowdownDyn  float64
	// PctDCFStat and PctDCFDyn are the connectivity shares under fault.
	PctDCFStat float64
	PctDCFDyn  float64
	// RebalancesDyn counts the Algorithm-2 repartitions the dynamic
	// scheme fired during the faulted run.
	RebalancesDyn int
}

// RunTable5Faulted re-runs the Table 5 static-versus-dynamic sweep under
// the Table5FaultPlan straggler (the robustness headline experiment).
func RunTable5Faulted(opt Options) ([]Table5FaultedRow, error) {
	return runTable5Faulted(opt, Table5Nodes)
}

func runTable5Faulted(opt Options, nodes []int) ([]Table5FaultedRow, error) {
	opt = opt.withDefaults()
	steps := opt.Steps
	if steps < 6 {
		steps = 6 // the dynamic scheme needs check intervals to fire
	}
	run := func(n int, fo float64, plan *FaultPlan) (*Result, error) {
		c := StoreSeparation(opt.Scale)
		return Run(Config{Case: c, Nodes: n, Machine: SP2(), Steps: steps,
			Fo: fo, CheckInterval: 3, Faults: plan, Metrics: opt.Metrics, Storage: opt.Storage})
	}
	plan := Table5FaultPlan()
	var out []Table5FaultedRow
	for _, n := range nodes {
		opt.logf("Table 5 faulted: %d nodes static clean/straggler...", n)
		cs, err := run(n, math.Inf(1), nil)
		if err != nil {
			return nil, err
		}
		fs, err := run(n, math.Inf(1), plan)
		if err != nil {
			return nil, err
		}
		opt.logf("Table 5 faulted: %d nodes dynamic fo=5 clean/straggler...", n)
		cd, err := run(n, 5, nil)
		if err != nil {
			return nil, err
		}
		fd, err := run(n, 5, plan)
		if err != nil {
			return nil, err
		}
		out = append(out, Table5FaultedRow{
			Nodes:         n,
			SlowdownStat:  ratio(fs.TotalTime, cs.TotalTime),
			SlowdownDyn:   ratio(fd.TotalTime, cd.TotalTime),
			PctDCFStat:    fs.PctConnect(),
			PctDCFDyn:     fd.PctConnect(),
			RebalancesDyn: fd.Rebalances,
		})
	}
	return out, nil
}

// Table6Nodes are the wallclock-speedup partitions of Table 6.
var Table6Nodes = []int{18, 28, 42, 61}

// Table6Row is one row of the Cray-YMP wallclock comparison: overall and
// per-node speedups in "YMP units" (1 unit = the same computation on a
// single YMP/864 processor).
type Table6Row struct {
	Nodes       int
	OverallSP2  float64
	OverallSP   float64
	PerNodeSP2  float64
	PerNodeSP   float64
	YMPTimeStep float64
}

// RunTable6 reproduces Table 6: run-time speedup of the finned-store case
// over a single-processor Cray YMP/864.
func RunTable6(opt Options) ([]Table6Row, error) {
	opt = opt.withDefaults()
	var out []Table6Row
	for _, n := range Table6Nodes {
		row := Table6Row{Nodes: n}
		for _, m := range []Machine{SP2(), SP()} {
			opt.logf("Table 6: %d nodes on %s...", n, m.Name)
			c := StoreSeparation(opt.Scale)
			res, err := Run(Config{Case: c, Nodes: n, Machine: m,
				Steps: opt.Steps, Fo: math.Inf(1), Metrics: opt.Metrics, Storage: opt.Storage})
			if err != nil {
				return nil, err
			}
			ympT := EstimateSerialTime(res.Flops, YMP864())
			overall := ratio(ympT, res.TotalTime)
			if m.Name == "SP2" {
				row.OverallSP2 = overall
				row.PerNodeSP2 = overall / float64(n)
			} else {
				row.OverallSP = overall
				row.PerNodeSP = overall / float64(n)
			}
			row.YMPTimeStep = ratio(ympT, float64(len(res.Steps)))
		}
		out = append(out, row)
	}
	return out, nil
}

// FprintPerfTable writes a PerfTable in the paper's layout.
func FprintPerfTable(w io.Writer, t *PerfTable) {
	fmt.Fprintf(w, "%s\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Nodes\tPts/node\tMflops/node SP2\tSP\tSpeedup SP2\tSP\t%DCF3D SP2\tSP")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.1f\t%s\t%s\t%s\t%s\n",
			r.Nodes, r.PtsPerNode, r.MflopsSP2, r.MflopsSP,
			fmtStat("%.2f", r.SpeedupSP2), fmtStat("%.2f", r.SpeedupSP),
			fmtStat("%.0f%%", r.PctDCF3DSP2), fmtStat("%.0f%%", r.PctDCF3DSP))
	}
	tw.Flush()
	fmt.Fprintln(w, "Module speedups (SP2): nodes flow(OVERFLOW) connect(DCF3D) combined")
	for _, f := range t.FigSP2 {
		fmt.Fprintf(w, "  %3d  %6s  %6s  %6s\n", f.Nodes,
			fmtStat("%.2f", f.Flow), fmtStat("%.2f", f.Connect), fmtStat("%.2f", f.Combined))
	}
}

// FprintSpeedupFigure renders a PerfTable's per-module speedups as the
// paper-style text figure (Figs. 5, 7, 10) for one machine ("SP2" or "SP").
func FprintSpeedupFigure(w io.Writer, t *PerfTable, machine string) {
	figs := t.FigSP2
	if machine == "SP" {
		figs = t.FigSP
	}
	nodes := make([]int, len(figs))
	flow := make([]float64, len(figs))
	connect := make([]float64, len(figs))
	combined := make([]float64, len(figs))
	for i, f := range figs {
		nodes[i], flow[i], connect[i], combined[i] = f.Nodes, f.Flow, f.Connect, f.Combined
	}
	report.SpeedupFigure(w, fmt.Sprintf("%s — parallel speedup (%s)", t.Title, machine),
		nodes, flow, connect, combined)
}

// FprintTable2 writes the scale-up study in the paper's layout.
func FprintTable2(w io.Writer, rows []ScaleupRow) {
	fmt.Fprintln(w, "Table 2 (airfoil scale-up study)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Case\tPoints\tPts/node\tTime/step SP2\tSP\t%DCF3D SP2\tSP")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s - %d nodes\t%d\t%d\t%.3f\t%.3f\t%s\t%s\n",
			r.Name, r.Nodes, r.Points, r.PtsPerNode,
			r.SecStepSP2, r.SecStepSP,
			fmtStat("%.0f%%", r.PctDCF3DSP2), fmtStat("%.0f%%", r.PctDCF3DSP))
	}
	tw.Flush()
}

// FprintTable5 writes the static/dynamic comparison in the paper's layout.
func FprintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5 (DCF3D with dynamic load balancing, fo=5, SP2)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Nodes\t%DCF dyn\t%DCF stat\tDCF speedup dyn\tstat\tcombined dyn\tstat")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Nodes, fmtStat("%.0f%%", r.PctDCFDynamic), fmtStat("%.0f%%", r.PctDCFStatic),
			fmtStat("%.2f", r.DCFSpeedupDyn), fmtStat("%.2f", r.DCFSpeedupStat),
			fmtStat("%.2f", r.CombinedDyn), fmtStat("%.2f", r.CombinedStat))
	}
	tw.Flush()
}

// FprintTable5Faulted writes the straggler-perturbed Table 5 sweep.
func FprintTable5Faulted(w io.Writer, rows []Table5FaultedRow) {
	fmt.Fprintln(w, "Table 5 under a mid-run straggler (rank 1 at 1/3 speed from step 2, SP2)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Nodes\tSlowdown stat\tdyn\t%DCF stat\tdyn\tRebalances dyn")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%d\n",
			r.Nodes, fmtStat("%.2fx", r.SlowdownStat), fmtStat("%.2fx", r.SlowdownDyn),
			fmtStat("%.0f%%", r.PctDCFStat), fmtStat("%.0f%%", r.PctDCFDyn), r.RebalancesDyn)
	}
	tw.Flush()
}

// FprintTable6 writes the YMP comparison in the paper's layout.
func FprintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintln(w, "Table 6 (wallclock speedup over 1-processor Cray YMP, YMP units)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Nodes\tOverall SP2\tSP\tPer node SP2\tSP")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n",
			r.Nodes, fmtStat("%.1f", r.OverallSP2), fmtStat("%.1f", r.OverallSP),
			fmtStat("%.2f", r.PerNodeSP2), fmtStat("%.2f", r.PerNodeSP))
	}
	tw.Flush()
}
