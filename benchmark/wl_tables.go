package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"overd"
)

// goldenFile pins every virtual clock of the six paper tables at scale 0.05
// and 2 steps; it belongs to the repository's own tests and is only read.
const goldenFile = "testdata/tables_scale005_steps2.jsonl"

var tableOpts = overd.Options{Scale: 0.05, Steps: 2}

// goldenFor returns the golden lines of the selected tables. The file is
// JSON lines in table order, each tagged {"table":"<id>[.fig.<machine>]"…},
// so the golden of a subset of tables is the subset of lines.
func goldenFor(ids []string) ([]byte, error) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		return nil, err
	}
	want := selection(ids)
	var out bytes.Buffer
	const prefix = `{"table":"`
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if !bytes.HasPrefix(line, []byte(prefix)) {
			return nil, fmt.Errorf("%s: unexpected line %q", goldenFile, line)
		}
		id := string(line[len(prefix):])
		id = id[:strings.IndexAny(id, `".`)]
		if want[id] {
			out.Write(line)
		}
	}
	return out.Bytes(), nil
}

func selection(ids []string) map[string]bool {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	return want
}

// sweepSpanned regenerates the selected tables one overd.RunTableN call at
// a time, each under a span, emitting exactly the bytes
// overd.EmitTablesJSON emits for the same selection.
func sweepSpanned(ids []string, ln *lane) ([]byte, error) {
	var out bytes.Buffer
	for _, id := range ids {
		ln.begin("tables.table" + id)
		var err error
		switch id {
		case "1", "3", "4":
			run := map[string]func(overd.Options) (*overd.PerfTable, error){
				"1": overd.RunTable1, "3": overd.RunTable3, "4": overd.RunTable4}[id]
			var t *overd.PerfTable
			if t, err = run(tableOpts); err == nil {
				err = overd.EmitPerfTableJSON(&out, id, t)
			}
		case "2":
			var rows []overd.ScaleupRow
			if rows, err = overd.RunTable2(tableOpts); err == nil {
				err = overd.EmitRowsJSON(&out, id, rows)
			}
		case "5":
			var rows []overd.Table5Row
			if rows, err = overd.RunTable5(tableOpts); err == nil {
				err = overd.EmitRowsJSON(&out, id, rows)
			}
		case "6":
			var rows []overd.Table6Row
			if rows, err = overd.RunTable6(tableOpts); err == nil {
				err = overd.EmitRowsJSON(&out, id, rows)
			}
		default:
			err = fmt.Errorf("table %q is not part of the benchmark", id)
		}
		ln.end()
		if err != nil {
			return nil, err
		}
	}
	return out.Bytes(), nil
}

// tablesGolden is ROADMAP's flagship "wall time to regenerate a paper
// table": one unit is one sweep of about sixty short overd.Run calls, so it
// moves with per-run set-up and barely with a steady-state kernel.
func tablesGolden() workload {
	// sweep runs one sweep, under spans when ln is not nil, verifies it and
	// returns its wall seconds.
	sweep := func(e *env, p *pass, golden []byte, ln *lane) float64 {
		p.attempts++
		t0 := time.Now()
		var got []byte
		var err error
		if ln == nil {
			var buf bytes.Buffer
			err = overd.EmitTablesJSON(&buf, tableOpts, selection(e.sz.tables))
			got = buf.Bytes()
		} else {
			got, err = sweepSpanned(e.sz.tables, ln)
		}
		secs := time.Since(t0).Seconds()
		switch {
		case err != nil:
			p.fail("sweep: %v", err)
		case !bytes.Equal(got, golden):
			p.fail("sweep output differs from %s", goldenFile)
		}
		return secs
	}
	timed := func(e *env, p *pass, golden []byte, ln *lane) {
		ln.setUnit(len(p.unitsMS))
		ln.begin("sweep")
		from := readUsage()
		secs := sweep(e, p, golden, ln)
		p.m.add(from, readUsage(), 1)
		ln.end()
		p.unitsMS = append(p.unitsMS, secs*1e3)
	}
	return workload{
		name: "tables_golden",
		repeat: func(e *env, p *pass) {
			golden, err := goldenFor(e.sz.tables)
			if err != nil {
				p.attempts++
				p.fail("%v", err)
				return
			}
			if len(p.setupsS) == 0 {
				// The first sweep of a process is cold — untouched heap,
				// cold caches — and is the set-up a user of cmd/tables
				// pays in full. It is verified like every other.
				p.setupsS = append(p.setupsS, sweep(e, p, golden, nil))
				runtime.GC()
			}
			timed(e, p, golden, nil)
		},
		trace: func(e *env, d time.Duration, base *pass) (*pass, *tracer, map[string]float64) {
			// One traced sweep, compared with the untraced sweeps of the
			// same run: a sweep costs as much as a whole run of another
			// workload, and six spans cannot slow it.
			p := &pass{procs: e.procs}
			tr := newTracer(1, func(int) string { return "sweep" })
			golden, err := goldenFor(e.sz.tables)
			if err != nil {
				p.attempts++
				p.fail("%v", err)
				return p, tr, nil
			}
			withProcs(e.procs, func() {
				runtime.GC()
				timed(e, p, golden, tr.lane(0))
			})
			return p, tr, map[string]float64{
				"trace_overhead_frac": median(p.unitsMS)/median(base.unitsMS) - 1,
			}
		},
	}
}
