package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// tinySizes keeps every workload, its correctness checks and both passes
// under a few seconds.
func tinySizes() sizes {
	return sizes{
		TPCHSF: 0.5, LineitemFiles: 2,
		DSRows: 400, SalesRows: 5, ReturnsRows: 2,
		MaintEvery: 2, VacuumEvery: 4, SpaceAfterTxns: 4,
		ReportQueries: 8, SessionBudget: 1 << 10,
		SetupReps: 2,
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

// sameMetrics fails unless got holds exactly the metrics of want, with
// their units.
func sameMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("result has %d metrics %v, BENCHMARK.json lists %d", len(got), names, len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func runTiny(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 7, seconds: 0.4, trace: trace, out: t.TempDir()}
	res, err := runBench(o, tinySizes(), &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s",
			workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

func TestSmokeAllWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 3", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			e2e := runTiny(t, w.Name, false)
			sameMetrics(t, e2e.Metrics, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if e2e.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, e2e.Metrics[m.Name].Value)
				}
			}
			layer := runTiny(t, w.Name, true)
			sameMetrics(t, layer.Metrics, spec.PerLayer)
			spills := layer.Metrics["exec.join_spills"].Value
			switch w.Name {
			case "olap_power":
				if spills != 0 {
					t.Errorf("olap_power spilled %v joins, want 0", spills)
				}
			case "htap_http":
				if spills == 0 {
					t.Error("htap_http reporting join did not spill")
				}
				if layer.Metrics["server.handler_ms"].Value <= 0 {
					t.Error("htap_http traced no server handler time")
				}
			case "txn_dml":
				if layer.Metrics["catalog.commits"].Value == 0 {
					t.Error("txn_dml committed nothing")
				}
			}
		})
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errb); code == 0 {
		t.Fatalf("exit code 0 for an unknown workload")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %s", out.String())
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	l := summarize(xs)
	if l.N != 100 || l.P50 != 50.5 || l.Tail != 90 || l.TailPc != 90 || l.Beyond != 10 {
		t.Fatalf("summarize = %+v", l)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "client.txn", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "sql.exec.insert", Start: 10, End: 40},
		{Op: 1, ID: 3, Parent: 1, Name: "sql.exec.update", Start: 30, End: 60},
	}
	st := selfTimes(spans)
	if got := st["client.txn"].SelfMs; got != ms(50) {
		t.Fatalf("client.txn self = %v ms, want %v", got, ms(50))
	}
}
