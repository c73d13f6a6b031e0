package overd

import (
	"cmp"
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
	// Storage, when non-nil, is the store every run draws on
	// (Config.Storage), so that sweeps run one after another reuse one
	// another's block memory and buffers. Nil gives each RunTableN / RunBalancerSweep
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

// perfTable runs a case over node counts on both machines and assembles the
// paper-style table.
func (s *sweep) perfTable(title, mk string, nodes []int) (*PerfTable, error) {
	t := &PerfTable{Title: title}
	var base2, baseS *ran
	for _, n := range nodes {
		rs, err := s.run(fmt.Sprintf("%s: %d nodes", title, n), s.perfSpec(mk, n), SP2(), SP())
		if err != nil {
			return nil, err
		}
		r2, rs1 := rs[0], rs[1]
		if base2 == nil {
			base2, baseS = r2, rs1
		}
		t.Rows = append(t.Rows, PerfRow{
			Nodes:       n,
			PtsPerNode:  base2.points / n,
			MflopsSP2:   r2.MflopsPerNode(),
			MflopsSP:    rs1.MflopsPerNode(),
			SpeedupSP2:  ratio(base2.TotalTime, r2.TotalTime),
			SpeedupSP:   ratio(baseS.TotalTime, rs1.TotalTime),
			PctDCF3DSP2: r2.PctConnect(),
			PctDCF3DSP:  rs1.PctConnect(),
		})
		t.FigSP2 = append(t.FigSP2, ModuleSpeedup{
			Nodes:    n,
			Flow:     ratio(base2.FlowTime, r2.FlowTime),
			Connect:  ratio(base2.ConnectTime, r2.ConnectTime),
			Combined: ratio(base2.TotalTime, r2.TotalTime),
		})
		t.FigSP = append(t.FigSP, ModuleSpeedup{
			Nodes:    n,
			Flow:     ratio(baseS.FlowTime, rs1.FlowTime),
			Connect:  ratio(baseS.ConnectTime, rs1.ConnectTime),
			Combined: ratio(baseS.TotalTime, rs1.TotalTime),
		})
	}
	return t, nil
}

// Table1Nodes are the paper's oscillating-airfoil processor partitions.
var Table1Nodes = []int{6, 9, 12, 18, 24}

// RunTable1 reproduces Table 1 and Figure 5: the 2-D oscillating airfoil
// on 6-24 nodes of the SP2 and SP.
func RunTable1(opt Options) (*PerfTable, error) { return newSweep(opt).table1() }

func (s *sweep) table1() (*PerfTable, error) {
	return s.perfTable("Table 1 (2D oscillating airfoil)", "airfoil", Table1Nodes)
}

// Table3Nodes are the paper's delta-wing partitions.
var Table3Nodes = []int{7, 12, 26, 55}

// RunTable3 reproduces Table 3 and Figure 7: the descending delta wing.
func RunTable3(opt Options) (*PerfTable, error) { return newSweep(opt).table3() }

func (s *sweep) table3() (*PerfTable, error) {
	return s.perfTable("Table 3 (descending delta wing)", "deltawing", Table3Nodes)
}

// Table4Nodes are the paper's finned-store partitions.
var Table4Nodes = []int{16, 18, 22, 28, 35, 42, 52, 61}

// RunTable4 reproduces Table 4 and Figure 10: the wing/pylon/finned-store
// separation with static load balancing.
func RunTable4(opt Options) (*PerfTable, error) { return newSweep(opt).table4() }

func (s *sweep) table4() (*PerfTable, error) {
	return s.perfTable("Table 4 (finned-store separation)", "storesep", Table4Nodes)
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
func RunTable2(opt Options) ([]ScaleupRow, error) { return newSweep(opt).table2() }

func (s *sweep) table2() ([]ScaleupRow, error) {
	rows := []struct {
		name  string
		scale float64
		nodes int
	}{
		{"Coarsened", 0.25, 3},
		{"Original", 1, 12},
		{"Refined", 4, 48},
	}
	var out []ScaleupRow
	for _, rw := range rows {
		spec := s.perfSpec("airfoil", rw.nodes)
		spec.scale *= rw.scale
		rs, err := s.run("Table 2: "+rw.name, spec, SP2(), SP())
		if err != nil {
			return nil, err
		}
		out = append(out, ScaleupRow{
			Name: rw.name, Nodes: rw.nodes,
			Points: rs[0].points, PtsPerNode: rs[0].points / rw.nodes,
			SecStepSP2: rs[0].TimePerStep(), SecStepSP: rs[1].TimePerStep(),
			PctDCF3DSP2: rs[0].PctConnect(), PctDCF3DSP: rs[1].PctConnect(),
		})
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
func RunTable5(opt Options) ([]Table5Row, error) { return newSweep(opt).table5() }

// table5Spec is a Table 5 run: the store case on the SP2 under load factor
// fo, for long enough that the dynamic scheme's check intervals fire.
func (s *sweep) table5Spec(nodes int, fo float64) runSpec {
	spec := s.perfSpec("storesep", nodes)
	spec.steps = max(spec.steps, 6)
	spec.fo, spec.check = fo, 3
	return spec
}

func (s *sweep) table5() ([]Table5Row, error) {
	var out []Table5Row
	var baseStat, baseDyn *ran
	for _, n := range Table5Nodes {
		stat, err := s.run(fmt.Sprintf("Table 5: %d nodes static", n), s.table5Spec(n, math.Inf(1)), SP2())
		if err != nil {
			return nil, err
		}
		dyn, err := s.run(fmt.Sprintf("Table 5: %d nodes dynamic fo=5", n), s.table5Spec(n, 5), SP2())
		if err != nil {
			return nil, err
		}
		rs, rd := stat[0], dyn[0]
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
	return newSweep(opt).table5Faulted(Table5Nodes)
}

func (s *sweep) table5Faulted(nodes []int) ([]Table5FaultedRow, error) {
	var out []Table5FaultedRow
	for _, n := range nodes {
		// Static then dynamic, each clean then under the straggler; the clean
		// runs are Table 5's.
		var res []*ran
		for _, scheme := range []struct {
			name string
			fo   float64
		}{{"static", math.Inf(1)}, {"dynamic fo=5", 5}} {
			for _, fault := range []string{"", "straggler"} {
				spec := s.table5Spec(n, scheme.fo)
				spec.faults = fault
				rs, err := s.run(fmt.Sprintf("Table 5 faulted: %d nodes %s %s", n, scheme.name, cmp.Or(fault, "clean")), spec, SP2())
				if err != nil {
					return nil, err
				}
				res = append(res, rs[0])
			}
		}
		cs, fs, cd, fd := res[0], res[1], res[2], res[3]
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
func RunTable6(opt Options) ([]Table6Row, error) { return newSweep(opt).table6() }

func (s *sweep) table6() ([]Table6Row, error) {
	var out []Table6Row
	for _, n := range Table6Nodes {
		// Table 4's runs, where a sweep holds both tables.
		rs, err := s.run(fmt.Sprintf("Table 6: %d nodes", n), s.perfSpec("storesep", n), SP2(), SP())
		if err != nil {
			return nil, err
		}
		r2, rs1 := rs[0], rs[1]
		ympT := EstimateSerialTime(r2.Flops, YMP864())
		row := Table6Row{
			Nodes:       n,
			OverallSP2:  ratio(ympT, r2.TotalTime),
			OverallSP:   ratio(ympT, rs1.TotalTime),
			YMPTimeStep: ratio(ympT, float64(len(r2.Steps))),
		}
		row.PerNodeSP2 = row.OverallSP2 / float64(n)
		row.PerNodeSP = row.OverallSP / float64(n)
		out = append(out, row)
	}
	return out, nil
}

// FprintTables runs the selected tables (in fixed 1,2,3,4,5,5f,6 order)
// through one sweep — as EmitTablesJSON does — and writes each in the
// paper's layout, with the speedup figures as text plots if asked.
func FprintTables(w io.Writer, opt Options, want map[string]bool, figures bool) error {
	s := newSweep(opt)
	for _, id := range tableIDs {
		if !want[id] {
			continue
		}
		t, err := s.table(id)
		if err != nil {
			return err
		}
		switch t := t.(type) {
		case *PerfTable:
			FprintPerfTable(w, t)
			if figures {
				FprintSpeedupFigure(w, t, "SP2") // Figs. 5 (left), 7, 10
				if id == "1" {
					FprintSpeedupFigure(w, t, "SP") // Fig. 5 right
				}
			}
		case []ScaleupRow:
			FprintTable2(w, t)
		case []Table5Row:
			FprintTable5(w, t)
		case []Table5FaultedRow:
			FprintTable5Faulted(w, t)
		case []Table6Row:
			FprintTable6(w, t)
		}
		fmt.Fprintln(w)
	}
	return nil
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
