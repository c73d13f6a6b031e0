package overd

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// BalancerSweepRow is one cell of the balancer laboratory: one registered
// balancer racing one case on one machine under one fault plan, judged by
// the virtual clock.
type BalancerSweepRow struct {
	Balancer string `json:"balancer"`
	Case     string `json:"case"`
	Machine  string `json:"machine"`
	// Fault names the perturbation: "none" or "straggler" (the
	// Table5FaultPlan mid-run compute straggler).
	Fault       string  `json:"fault"`
	Nodes       int     `json:"nodes"`
	TotalTime   float64 `json:"total_time"`
	TimePerStep float64 `json:"time_per_step"`
	PctConnect  float64 `json:"pct_dcf3d"`
	// PctWait is the share of rank 0's run spent blocked — the
	// load-imbalance symptom the step balancers try to shrink.
	PctWait    float64 `json:"pct_wait"`
	Rebalances int     `json:"rebalances"`
	// Moved is the total gridpoint volume the balancer's repartitions
	// shipped (the cost side of its ledger).
	Moved int     `json:"moved_points"`
	Tau   float64 `json:"tau"`
}

// balancerSweepFo picks the load factor each balancer races under: the
// dynamic scheme needs a finite trigger (the Table 5 value would be 5; 2 is
// twitchier, so short smoke sweeps still fire), everything else runs with
// the factor disabled and its own defaults.
func balancerSweepFo(name string) float64 {
	if name == "dynamic" {
		return 2
	}
	return math.Inf(1)
}

// RunBalancerSweep races every registered balancer across the laboratory
// matrix — two paper cases, two machine models, clean and straggler-faulted
// — and returns one row per combination, in deterministic order (cases ×
// machines × faults in fixed order, balancers sorted by name). Every run is
// itself deterministic, so repeated sweeps are byte-identical once
// rendered.
func RunBalancerSweep(opt Options) ([]BalancerSweepRow, error) {
	s := newSweep(opt)
	steps := max(s.opt.Steps, 4) // the step balancers need check intervals to fire
	cases := []struct {
		name  string
		nodes int
	}{
		{"airfoil", 12},
		{"storesep", 16},
	}
	machines := []Machine{SP2(), SP()}
	faults := []string{"none", "straggler"}

	var out []BalancerSweepRow
	for _, c := range cases {
		// One run serves a cell on both machines (re-timed where the balancer
		// and the fault plan allow); the rows go out machine by machine.
		rows := make([][]BalancerSweepRow, len(machines))
		for _, f := range faults {
			for _, name := range BalancerNames() {
				spec := runSpec{
					mk: c.name, scale: s.opt.Scale, nodes: c.nodes, steps: steps,
					fo: balancerSweepFo(name), check: 2, balancer: name,
				}
				if f != "none" {
					spec.faults = f
				}
				rs, err := s.run(fmt.Sprintf("balancer sweep: %s, fault %s, balancer %s", c.name, f, name),
					spec, machines...)
				if err != nil {
					return nil, err
				}
				for i, res := range rs {
					rows[i] = append(rows[i], BalancerSweepRow{
						Balancer: name, Case: c.name, Machine: machines[i].Name,
						Fault: f, Nodes: c.nodes,
						TotalTime:   res.TotalTime,
						TimePerStep: res.TimePerStep(),
						PctConnect:  res.PctConnect(),
						PctWait:     res.PctWait(),
						Rebalances:  res.Rebalances,
						Moved:       res.MovedPoints,
						Tau:         res.Tau,
					})
				}
			}
		}
		for _, r := range rows {
			out = append(out, r...)
		}
	}
	return out, nil
}

// EmitBalancerSweepJSON writes sweep rows as tagged JSON lines (table id
// "balancers"), the same format as the golden tables.
func EmitBalancerSweepJSON(w io.Writer, rows []BalancerSweepRow) error {
	return EmitRowsJSON(w, "balancers", rows)
}

// FprintBalancerSweep writes the sweep as a comparison table grouped by
// case/machine/fault, one line per balancer.
func FprintBalancerSweep(w io.Writer, rows []BalancerSweepRow) {
	fmt.Fprintln(w, "Balancer sweep (virtual clock; lower total time wins)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Case\tMachine\tFault\tBalancer\tTime/step\t%DCF3D\t%wait\tRebal\tMoved\tτ")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s/%d\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d\t%s\n",
			r.Case, r.Nodes, r.Machine, r.Fault, r.Balancer,
			fmtStat("%.3f", r.TimePerStep), fmtStat("%.0f%%", r.PctConnect),
			fmtStat("%.0f%%", r.PctWait), r.Rebalances, r.Moved,
			fmtStat("%.3f", r.Tau))
	}
	tw.Flush()
}
