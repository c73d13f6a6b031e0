// Command benchmark is the repository's benchmark of record: six named
// workloads, end-to-end metrics measured with nothing attached, and a
// separate traced run that gives a number for every layer underneath. The
// names, units, directions and regression bounds live in BENCHMARK.json at
// the root of the repository; README.md in this directory is the glossary.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh                      # every workload, one line per metric
//	bash benchmark/run.sh -runs 10 -o a.json   # a set of runs, for -compare
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir receives the traces, the result file and the scratch directories
// of the job service; it is inside the checkout and ignored by git.
const outDir = "benchmark/out"

func main() {
	if err := enterRoot(); err != nil {
		fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	var (
		name    = flag.String("workload", "", "run one workload (default: all of them)")
		seed    = flag.Int64("seed", 1, "seed of serve_mixed's job sequence and par_pattern's payloads")
		seconds = flag.Float64("seconds", float64(sp.RunSeconds), "seconds of timed units per run")
		traced  = flag.Int("trace", 0, "1: the traced run (per-layer metrics, trace-<workload>.json); 0: end-to-end metrics")
		runs    = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, …")
		procs   = flag.Int("procs", 0, "GOMAXPROCS of the Np pass (default min(NumCPU, 4))")
		result  = flag.String("o", filepath.Join(outDir, "result.json"), "result file")
		compare = flag.Bool("compare", false, "judge two result files by the bounds: -compare a.json b.json")
		smoke   = flag.Bool("smoke", false, "run every workload at toy size and check every metric is present and finite")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	p, err := choosePar(*procs, runtime.NumCPU())
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if *smoke {
		if err := smokeRun(sp, p, outDir); err != nil {
			fatal(err)
		}
		fmt.Println("smoke: every metric present and finite")
		return
	}

	todo := workloads()
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []workload{w}
	}
	file := resultFile{Host: hostFacts(p, *seed)}
	correct := true
	for run := 0; run < *runs; run++ {
		for _, w := range todo {
			e := &env{spec: sp, seed: *seed + int64(run), procs: p, sz: fullSizes, out: outDir}
			d := time.Duration(*seconds * float64(time.Second))
			var res runResult
			if *traced == 1 {
				res = runTraced(e, w, d)
			} else {
				res = runEndToEnd(e, w, d)
			}
			res.print(os.Stdout)
			correct = correct && res.Correct
			file.Runs = append(file.Runs, res)
		}
	}
	if err := file.write(*result); err != nil {
		fatal(err)
	}
	// The last line of standard output is the result of the last run, in
	// the form the benchmark contract fixes.
	if err := file.Runs[len(file.Runs)-1].printContract(os.Stdout); err != nil {
		fatal(err)
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// choosePar returns P, the GOMAXPROCS of the "Np" pass: min(NumCPU, 4)
// unless asked otherwise. More procs than CPUs is refused — a speed-up
// column recorded on too few cores reads 1.0 by construction and says
// nothing.
func choosePar(asked, cpus int) (int, error) {
	switch {
	case asked == 0:
		return min(cpus, 4), nil
	case asked < 0:
		return 0, fmt.Errorf("-procs %d: must be positive", asked)
	case asked > cpus:
		return 0, fmt.Errorf("-procs %d exceeds the %d CPUs of this host; a pass at more procs than CPUs measures nothing", asked, cpus)
	}
	return asked, nil
}
