package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkEmitted fails unless got holds exactly the declared metrics with their
// units.
func checkEmitted(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: emitted metric %s is not declared", what, name)
		}
	}
}

func checkCorrect(t *testing.T, name string, m *measured) {
	t.Helper()
	if m.checks.DigestMismatch != 0 || m.checks.Failed != 0 || len(m.checks.Problems) != 0 {
		t.Errorf("%s: digest_mismatch %d, failed %d, problems %v", name, m.checks.DigestMismatch, m.checks.Failed, m.checks.Problems)
	}
	if m.checks.Attempted == 0 {
		t.Errorf("%s: nothing attempted", name)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload on its small cells for
// one second, untraced and traced, and checks the emitted metrics against
// BENCHMARK.json and every answer against its reference.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	e2e, layers := declared(t)
	o := runOpts{Seed: 1, Seconds: 1, Quick: true, Golden: filepath.Join("..", "golden"), WorkDir: t.TempDir()}
	names := []string{coldTable2, scaleSweep, joint3D}
	if !testing.Short() {
		o.Primepard = filepath.Join(t.TempDir(), "primepard")
		build := exec.Command("go", "build", "-o", o.Primepard, "repro/cmd/primepard")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build primepard: %v\n%s", err, out)
		}
		names = append(names, daemonRestart)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			o.Trace = traced
			var rec *recorder
			if traced {
				rec = &recorder{}
			}
			m, err := measure(name, o, rec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkCorrect(t, name, m)
			if traced {
				checkEmitted(t, name+" traced", perLayer(m), layers)
				checkTrace(t, name, rec.all())
			} else {
				checkEmitted(t, name, endToEnd(m), e2e)
			}
		}
	}
}

// checkTrace writes the spans as a Chrome trace and checks that it parses,
// that every parent link resolves, and that each layer call appears.
func checkTrace(t *testing.T, name string, spans []span) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, name, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: trace does not parse: %v", name, err)
	}
	ids := map[float64]bool{}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			ids[ev.Args["span_id"].(float64)] = true
			seen[ev.Name] = true
		}
	}
	for _, ev := range doc.TraceEvents {
		if p, ok := ev.Args["parent_id"]; ok && !ids[p.(float64)] {
			t.Errorf("%s: span %s has unknown parent %v", name, ev.Name, p)
		}
	}
	want := map[string][]string{
		coldTable2:    {"model.BuildBlock", "core.Plan"},
		scaleSweep:    {"model.BuildBlock", "core.EstimatePlan", "core.Plan"},
		joint3D:       {"model.BuildBlock", "pipeline.Plan3D"},
		daemonRestart: {"http POST /v1/plan", "core.SearchCache.Load", "core.SearchCache.Save", "daemon.spawn", "core.Plan"},
	}
	for _, n := range want[name] {
		if !seen[n] {
			t.Errorf("%s: no %q span in the trace", name, n)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		head   []float64
		better string
		want   string
	}{
		{[]float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}, "lower", "regressed"},
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "lower", "improved"},
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "higher", "regressed"},
		{[]float64{101, 100, 100, 99, 101, 100, 99, 102, 100, 101}, "lower", "unchanged"},
		{[]float64{60, 140, 70, 130, 100, 65, 135, 95, 105, 100}, "lower", "unresolved"},
	} {
		if got, _ := judge(base, tc.head, tc.better, 0.1); got != tc.want {
			t.Errorf("judge(%v, %s) = %s, want %s", tc.head, tc.better, got, tc.want)
		}
	}
}
