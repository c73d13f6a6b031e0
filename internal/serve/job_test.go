package serve

import (
	"reflect"
	"strings"
	"testing"

	"overd"
)

func TestJobNormalizeDefaults(t *testing.T) {
	n, err := Job{Case: "airfoil"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := Job{Case: "airfoil", Machine: "SP2", Nodes: 8, Steps: 5, Scale: 1, CheckEvery: 5, Balancer: "static"}
	if !reflect.DeepEqual(n, want) {
		t.Errorf("normalized = %+v, want %+v", n, want)
	}
}

// TestJobBalancerResolution pins the canonical balancer field: empty
// resolves from fo (so pre-field requests keep one meaning), explicit
// spellings canonicalize, and contradictions are rejected.
func TestJobBalancerResolution(t *testing.T) {
	n, err := Job{Case: "airfoil", Fo: 2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Balancer != "dynamic" {
		t.Errorf("fo=2 resolved to %q, want dynamic", n.Balancer)
	}
	// An explicit spelling of the resolved default is the same job.
	implicit, _ := Job{Case: "airfoil"}.Normalize()
	explicit, err := Job{Case: "airfoil", Balancer: "static"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Hash() != explicit.Hash() {
		t.Error("implicit and explicit static balancer hash apart")
	}
	// Different balancer, different result, different cache entry.
	sfc, err := Job{Case: "airfoil", Balancer: "sfc"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sfc.Hash() == implicit.Hash() {
		t.Error("sfc and static jobs share a hash")
	}
	bad := []struct {
		job  Job
		want string
	}{
		{Job{Case: "airfoil", Balancer: "magic"}, "unknown balancer"},
		{Job{Case: "airfoil", Balancer: "dynamic"}, "finite load factor"},
		{Job{Case: "airfoil", Balancer: "static", Fo: 2}, "no effect"},
		{Job{Case: "airfoil", Balancer: "diffusive", Fo: 0.5}, "must exceed 1"},
	}
	for _, c := range bad {
		if _, err := c.job.Normalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want %q", c.job, err, c.want)
		}
	}
}

// TestJobHashInvariance pins the content-address property: requests that
// mean the same run hash equal regardless of how they were spelled, and
// requests that differ in any run-relevant field hash apart.
func TestJobHashInvariance(t *testing.T) {
	base, err := Job{Case: "airfoil"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	same := []Job{
		{Case: "airfoil", Machine: "SP2"},
		{Case: "airfoil", Nodes: 8, Steps: 5},
		{Case: "airfoil", Scale: 1, CheckEvery: 5},
		{Case: "airfoil", Tenant: "acme"},             // tenant is not identity
		{Case: "airfoil", Tenant: "zenith"},           // neither is a different tenant
		{Case: "airfoil", Faults: &overd.FaultPlan{}}, // empty plan = no plan
		{Case: "airfoil", Deadline: 30},               // how long the caller waits…
		{Case: "airfoil", MaxSteps: 100},              // …and their budget aren't identity
	}
	for i, j := range same {
		n, err := j.Normalize()
		if err != nil {
			t.Fatalf("same[%d]: %v", i, err)
		}
		if n.Hash() != base.Hash() {
			t.Errorf("same[%d] %+v hashes %s, want %s", i, j, n.Hash(), base.Hash())
		}
	}
	diff := []Job{
		{Case: "deltawing"},
		{Case: "airfoil", Nodes: 12},
		{Case: "airfoil", Steps: 6},
		{Case: "airfoil", Scale: 0.5},
		{Case: "airfoil", Machine: "SP"},
		{Case: "airfoil", Fo: 2},
		{Case: "airfoil", Tables: []string{"1"}},
		{Case: "airfoil", Faults: &overd.FaultPlan{Stragglers: []overd.FaultStraggler{{Rank: 0, Factor: 2}}}},
	}
	seen := map[string]int{base.Hash(): -1}
	for i, j := range diff {
		n, err := j.Normalize()
		if err != nil {
			t.Fatalf("diff[%d]: %v", i, err)
		}
		h := n.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("diff[%d] %+v collides with case %d", i, j, prev)
		}
		seen[h] = i
	}
}

func TestJobTableSelectionCanonicalOrder(t *testing.T) {
	a, err := Job{Case: "airfoil", Tables: []string{"5f", "1", "1"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Job{Case: "airfoil", Tables: []string{"1", "5f"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Errorf("reordered/duplicated table selections hash apart:\n%s\n%s",
			a.Canonical(), b.Canonical())
	}
	if got := strings.Join(a.Tables, ","); got != "1,5f" {
		t.Errorf("canonical tables = %q, want \"1,5f\"", got)
	}
}

func TestJobSeedFoldsIntoPlan(t *testing.T) {
	plan := &overd.FaultPlan{Stragglers: []overd.FaultStraggler{{Rank: 1, Factor: 3}}}
	withTop, err := Job{Case: "airfoil", Faults: plan, Seed: 42}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	inPlan := &overd.FaultPlan{Seed: 42, Stragglers: []overd.FaultStraggler{{Rank: 1, Factor: 3}}}
	withIn, err := Job{Case: "airfoil", Faults: inPlan}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if withTop.Hash() != withIn.Hash() {
		t.Errorf("top-level seed and in-plan seed hash apart:\n%s\n%s",
			withTop.Canonical(), withIn.Canonical())
	}
	if plan.Seed != 0 {
		t.Error("Normalize mutated the caller's fault plan")
	}
}

func TestJobValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		job  Job
		want string
	}{
		{"missing case", Job{}, "missing case"},
		{"unknown case", Job{Case: "wing47"}, `unknown case "wing47"`},
		{"unknown machine", Job{Case: "airfoil", Machine: "CM5"}, "CM5"},
		{"negative nodes", Job{Case: "airfoil", Nodes: -2}, "at least one processor"},
		{"negative steps", Job{Case: "airfoil", Steps: -1}, "must be positive"},
		{"negative scale", Job{Case: "airfoil", Scale: -1}, "must be positive"},
		{"negative fo", Job{Case: "airfoil", Fo: -1}, "cannot be negative"},
		{"negative check", Job{Case: "airfoil", CheckEvery: -1}, "must be positive"},
		{"bad table", Job{Case: "airfoil", Tables: []string{"9"}}, `unknown table "9"`},
		{"seed without faults", Job{Case: "airfoil", Seed: 7}, "without a fault plan"},
		{"nodes over limit", Job{Case: "airfoil", Nodes: 1000000}, "exceeds this server's limit of 256"},
		{"steps over limit", Job{Case: "airfoil", Steps: 99999}, "exceeds this server's limit of 10000"},
		{"scale over limit", Job{Case: "airfoil", Scale: 1e6}, "exceeds this server's limit of 64"},
		{"negative deadline", Job{Case: "airfoil", Deadline: -3}, "cannot be negative"},
		{"negative max_steps", Job{Case: "airfoil", MaxSteps: -1}, "cannot be negative"},
		{"max_steps below steps", Job{Case: "airfoil", Steps: 8, MaxSteps: 4}, "always be cancelled"},
		{"checkpoint without faults", Job{Case: "airfoil", CheckpointEvery: 3}, "without faults"},
		{"bad plan", Job{Case: "airfoil",
			Faults: &overd.FaultPlan{Stragglers: []overd.FaultStraggler{{Rank: 0, Factor: 0.5}}}},
			"factor 0.5 < 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.job.Normalize()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// TestJobCustomLimits: server-configured caps replace the defaults, and
// -1 disables one cap without touching the others.
func TestJobCustomLimits(t *testing.T) {
	lim := Limits{MaxNodes: 16, MaxSteps: -1}
	if _, err := (Job{Case: "airfoil", Nodes: 17}).NormalizeLimits(lim); err == nil ||
		!strings.Contains(err.Error(), "limit of 16") {
		t.Errorf("custom node cap not applied: %v", err)
	}
	if _, err := (Job{Case: "airfoil", Steps: 50000}).NormalizeLimits(lim); err != nil {
		t.Errorf("MaxSteps -1 should disable the step cap: %v", err)
	}
	// MaxScale stayed zero → default still applies.
	if _, err := (Job{Case: "airfoil", Scale: 100}).NormalizeLimits(lim); err == nil {
		t.Error("default scale cap vanished under a partial Limits")
	}
}

func TestParseJob(t *testing.T) {
	j, err := ParseJob([]byte(`{"case":"airfoil","nodes":4,"tenant":"acme"}`))
	if err != nil {
		t.Fatal(err)
	}
	if j.Tenant != "acme" || j.Nodes != 4 || j.Machine != "SP2" {
		t.Errorf("parsed = %+v", j)
	}
	if _, err := ParseJob([]byte(`{"case":"airfoil","scael":1}`)); err == nil ||
		!strings.Contains(err.Error(), "scael") {
		t.Errorf("unknown field not rejected: %v", err)
	}
	if _, err := ParseJob([]byte(`{`)); err == nil {
		t.Error("truncated JSON not rejected")
	}
}

// FuzzParseJob: whatever the bytes, ParseJob returns a job or an error and
// never panics; a job it accepts is already normal (Normalize changes
// nothing but the stripped tenant, and nothing at all the second time), and
// its canonical bytes parse back to a job with the same content address —
// the cache key survives a round trip through the journal.
func FuzzParseJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := ParseJob(data)
		if err != nil {
			return
		}
		n, err := j.Normalize()
		if err != nil {
			t.Fatalf("accepted job %s does not normalize: %v", j.Canonical(), err)
		}
		if j.Tenant = ""; !reflect.DeepEqual(n, j) {
			t.Fatalf("Normalize is not idempotent:\n first  %+v\n second %+v", j, n)
		}
		back, err := ParseJob(j.Canonical())
		if err != nil {
			t.Fatalf("canonical bytes %s do not parse: %v", j.Canonical(), err)
		}
		if back.Hash() != j.Hash() {
			t.Fatalf("hash changes across a round trip:\n %s\n %s", j.Canonical(), back.Canonical())
		}
	})
}
