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
	opt = opt.withDefaults()
	steps := opt.Steps
	if steps < 4 {
		steps = 4 // the step balancers need check intervals to fire
	}
	cases := []struct {
		name  string
		mk    func(float64) *Case
		nodes int
	}{
		{"airfoil", OscillatingAirfoil, 12},
		{"storesep", StoreSeparation, 16},
	}
	machines := []Machine{SP2(), SP()}
	faults := []struct {
		name string
		plan *FaultPlan
	}{
		{"none", nil},
		{"straggler", Table5FaultPlan()},
	}

	var out []BalancerSweepRow
	for _, c := range cases {
		for _, m := range machines {
			for _, f := range faults {
				for _, name := range BalancerNames() {
					opt.logf("balancer sweep: %s on %s, fault %s, balancer %s...",
						c.name, m.Name, f.name, name)
					res, err := Run(Config{
						Case: c.mk(opt.Scale), Nodes: c.nodes, Machine: m,
						Steps: steps, Fo: balancerSweepFo(name),
						CheckInterval: 2, Balancer: name,
						Faults: f.plan, Metrics: opt.Metrics, Storage: opt.Storage,
					})
					if err != nil {
						return nil, fmt.Errorf("balancer sweep: %s on %s (%s, %s): %w",
							c.name, m.Name, f.name, name, err)
					}
					out = append(out, BalancerSweepRow{
						Balancer: name, Case: c.name, Machine: m.Name,
						Fault: f.name, Nodes: c.nodes,
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
