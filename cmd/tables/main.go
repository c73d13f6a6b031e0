// Command tables regenerates the paper's evaluation tables and figure
// series (Tables 1-6, Figures 5/7/10/11) on the simulated IBM SP2 and SP.
//
// Usage:
//
// The extra id "5f" re-runs the Table 5 sweep under a mid-run compute
// straggler (the robustness experiment; see package fault).
//
//	tables [-scale f] [-steps n] [-only 1,2,3,4,5,5f,6] [-v] [-json]
//	tables -balancers [-scale f] [-steps n] [-v] [-json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"overd"
)

// tablesConfig is the validated form of the command-line flags.
type tablesConfig struct {
	opt       overd.Options
	want      map[string]bool
	figures   bool
	asJSON    bool
	balancers bool
}

// validateTablesFlags turns raw flag values into a runnable config,
// rejecting nonsensical inputs with a clear error instead of letting them
// degrade into silent defaults or a hung run.
func validateTablesFlags(scale float64, steps int, only string, figures, asJSON, balancers bool, logw io.Writer) (tablesConfig, error) {
	if scale <= 0 {
		return tablesConfig{}, fmt.Errorf("-scale must be > 0 (got %g)", scale)
	}
	if steps <= 0 {
		return tablesConfig{}, fmt.Errorf("-steps must be > 0 (got %d)", steps)
	}
	if figures && asJSON {
		return tablesConfig{}, fmt.Errorf("-figures has no effect with -json; pick one output mode")
	}
	if balancers && figures {
		return tablesConfig{}, fmt.Errorf("-figures has no effect with -balancers; pick one output mode")
	}
	cfg := tablesConfig{
		// One slab store for every table of the invocation.
		opt:       overd.Options{Scale: scale, Steps: steps, Log: logw, Storage: overd.NewStorage()},
		figures:   figures,
		asJSON:    asJSON,
		balancers: balancers,
	}
	if balancers {
		// The sweep replaces the paper tables; -only is ignored.
		return cfg, nil
	}
	want, err := overd.ParseTableSelection(only)
	if err != nil {
		return tablesConfig{}, err
	}
	cfg.want = want
	return cfg, nil
}

func main() {
	scale := flag.Float64("scale", 1, "gridpoint budget multiplier (1 = paper size)")
	steps := flag.Int("steps", 4, "measured timesteps per run")
	only := flag.String("only", "1,2,3,4,5,6", "comma-separated tables to run (add 5f for the straggler-faulted Table 5)")
	verbose := flag.Bool("v", false, "log per-run progress to stderr")
	figures := flag.Bool("figures", false, "render the speedup figures (Figs. 5/7/10) as text plots")
	asJSON := flag.Bool("json", false, "emit one machine-readable JSON object per table row instead of text")
	balancers := flag.Bool("balancers", false, "race every registered load balancer across cases, machines and fault plans instead of the paper tables")
	flag.Parse()

	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}

	cfg, err := validateTablesFlags(*scale, *steps, *only, *figures, *asJSON, *balancers, logw)
	if err != nil {
		fail(err)
	}

	if cfg.balancers {
		rows, err := overd.RunBalancerSweep(cfg.opt)
		if err != nil {
			fail(err)
		}
		if cfg.asJSON {
			if err := overd.EmitBalancerSweepJSON(os.Stdout, rows); err != nil {
				fail(err)
			}
			return
		}
		overd.FprintBalancerSweep(os.Stdout, rows)
		return
	}

	if cfg.asJSON {
		if err := overd.EmitTablesJSON(os.Stdout, cfg.opt, cfg.want); err != nil {
			fail(err)
		}
		return
	}

	if err := overd.FprintTables(os.Stdout, cfg.opt, cfg.want, cfg.figures); err != nil {
		fail(err)
	}
}
