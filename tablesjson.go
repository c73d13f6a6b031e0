package overd

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
)

// ValidTableIDs is the set of table identifiers accepted by -only: the
// paper's Tables 1-6 plus "5f", the straggler-faulted Table 5 rerun.
var ValidTableIDs = map[string]bool{
	"1": true, "2": true, "3": true, "4": true, "5": true, "5f": true, "6": true,
}

// ParseTableSelection parses a comma-separated table list ("1,2,5f") into a
// selection set, rejecting unknown ids with an error naming the bad id and
// the valid choices.
func ParseTableSelection(only string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, t := range strings.Split(only, ",") {
		id := strings.TrimSpace(t)
		if id == "" {
			continue
		}
		if !ValidTableIDs[id] {
			return nil, fmt.Errorf("unknown table %q (valid: %s)", id, strings.Join(tableIDs, ", "))
		}
		want[id] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("empty table selection %q", only)
	}
	return want, nil
}

// sanitizeRow replaces any non-finite float64 field of a row struct with 0:
// encoding/json rejects NaN/Inf outright, so one degenerate ratio (see
// ratio) must not abort the whole emission. Rows with only finite fields
// are returned untouched, so normal output bytes are unaffected.
func sanitizeRow(row any) any {
	v := reflect.ValueOf(row)
	if v.Kind() != reflect.Struct {
		return row
	}
	dirty := false
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 {
			if x := f.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
				dirty = true
				break
			}
		}
	}
	if !dirty {
		return row
	}
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	for i := 0; i < c.NumField(); i++ {
		if f := c.Field(i); f.Kind() == reflect.Float64 {
			if x := f.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
				f.SetFloat(0)
			}
		}
	}
	return c.Interface()
}

// EmitRowsJSON writes one JSON object per table row to w (JSON-lines),
// tagging each with its table id so downstream tooling can append rows from
// many runs into one BENCH_*.json trajectory file.
func EmitRowsJSON(w io.Writer, table string, rows any) error {
	enc := json.NewEncoder(w)
	v := reflect.ValueOf(rows)
	for i := 0; i < v.Len(); i++ {
		if err := enc.Encode(struct {
			Table string `json:"table"`
			Row   any    `json:"row"`
		}{table, sanitizeRow(v.Index(i).Interface())}); err != nil {
			return err
		}
	}
	return nil
}

// EmitPerfTableJSON writes a PerfTable's rows plus its per-module speedup
// figure series (the Figs. 5/7/10 points) as JSON lines.
func EmitPerfTableJSON(w io.Writer, table string, t *PerfTable) error {
	if err := EmitRowsJSON(w, table, t.Rows); err != nil {
		return err
	}
	if err := EmitRowsJSON(w, table+".fig.SP2", t.FigSP2); err != nil {
		return err
	}
	return EmitRowsJSON(w, table+".fig.SP", t.FigSP)
}

// RunRow is the summary row of a single run, emitted (with table id "run")
// at the head of a job's tables artifact by EmitRunJSON. Every field is a
// pure function of the run's configuration, so the encoded bytes are too.
type RunRow struct {
	Case       string  `json:"case"`
	Machine    string  `json:"machine"`
	Balancer   string  `json:"balancer"`
	Nodes      int     `json:"nodes"`
	Steps      int     `json:"steps"`
	TotalTime  float64 `json:"total_time"`
	Flow       float64 `json:"flow"`
	Motion     float64 `json:"motion"`
	Connect    float64 `json:"connect"`
	Balance    float64 `json:"balance"`
	Mflops     float64 `json:"mflops_per_node"`
	PctConnect float64 `json:"pct_dcf3d"`
	IGBPs      int     `json:"igbps"`
	Orphans    int     `json:"orphans"`
	Rebalances int     `json:"rebalances"`
	Moved      int     `json:"moved_points"`
	Recoveries int     `json:"recoveries"`
	FinalNodes int     `json:"final_nodes"`
}

// RunStepRow is one timestep's phase breakdown in a job's tables artifact
// (table id "run.steps").
type RunStepRow struct {
	Step    int     `json:"step"`
	Flow    float64 `json:"flow"`
	Motion  float64 `json:"motion"`
	Connect float64 `json:"connect"`
	Balance float64 `json:"balance"`
	IGBPs   int     `json:"igbps"`
	MaxF    float64 `json:"max_f"`
}

// EmitRunJSON writes one run's summary and per-step rows as JSON lines in
// the same tagged-row format as EmitTablesJSON, so a job's artifact and a
// table sweep's output concatenate cleanly. It shares EmitRowsJSON's
// sanitization, and — like the golden tables — its bytes are a pure
// function of the run's request, which is what lets the serve layer cache
// them content-addressed.
func EmitRunJSON(w io.Writer, res *Result) error {
	summary := RunRow{
		Case:       res.Config.Case.Name,
		Machine:    res.Config.Machine.Name,
		Balancer:   res.Config.Balancer,
		Nodes:      res.Config.Nodes,
		Steps:      len(res.Steps),
		TotalTime:  res.TotalTime,
		Flow:       res.FlowTime,
		Motion:     res.MotionTime,
		Connect:    res.ConnectTime,
		Balance:    res.BalanceTime,
		Mflops:     res.MflopsPerNode(),
		PctConnect: res.PctConnect(),
		IGBPs:      res.IGBPs,
		Orphans:    res.Orphans,
		Rebalances: res.Rebalances,
		Moved:      res.MovedPoints,
		Recoveries: res.Recoveries,
		FinalNodes: res.FinalNodes,
	}
	if err := EmitRowsJSON(w, "run", []RunRow{summary}); err != nil {
		return err
	}
	steps := make([]RunStepRow, len(res.Steps))
	for i, s := range res.Steps {
		steps[i] = RunStepRow{
			Step: i, Flow: s.Flow, Motion: s.Motion,
			Connect: s.Connect, Balance: s.Balance,
			IGBPs: s.IGBPs, MaxF: s.MaxF,
		}
	}
	return EmitRowsJSON(w, "run.steps", steps)
}

// tableIDs is the fixed order tables are run and written in.
var tableIDs = []string{"1", "2", "3", "4", "5", "5f", "6"}

// table runs one table: a *PerfTable for 1, 3 and 4, the table's slice of
// rows for the others.
func (s *sweep) table(id string) (any, error) {
	switch id {
	case "1":
		return s.table1()
	case "2":
		return s.table2()
	case "3":
		return s.table3()
	case "4":
		return s.table4()
	case "5":
		return s.table5()
	case "5f":
		return s.table5Faulted(Table5Nodes)
	case "6":
		return s.table6()
	}
	return nil, fmt.Errorf("unknown table %q", id)
}

// EmitTablesJSON runs the selected tables (in fixed 1,2,3,4,5,5f,6 order)
// and writes their rows as JSON lines. This is the single code path behind
// `tables -json` and the bit-identity golden test: any change to the
// simulation that alters a virtual clock, a table row, or a figure point
// changes these bytes. The tables share one Storage and one sweep, so a run
// two tables ask for (Table 6's are Table 4's) is executed once.
func EmitTablesJSON(w io.Writer, opt Options, want map[string]bool) error {
	return newSweep(opt).emitJSON(w, want)
}

func (s *sweep) emitJSON(w io.Writer, want map[string]bool) error {
	for _, id := range tableIDs {
		if !want[id] {
			continue
		}
		t, err := s.table(id)
		if err != nil {
			return err
		}
		if pt, ok := t.(*PerfTable); ok {
			err = EmitPerfTableJSON(w, id, pt)
		} else {
			err = EmitRowsJSON(w, id, t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
