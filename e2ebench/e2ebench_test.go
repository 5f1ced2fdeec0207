package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tinyPass runs one tiny-scale pass for a single block.
func tinyPass(t *testing.T, name string, seed int64, tr *tracer, workers int) *pass {
	t.Helper()
	w, err := newWorkload(name, true)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		w.workers = workers
	}
	inp, err := w.inputs(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	p := &pass{w: w, inp: inp, seed: seed, seconds: 1e-9, t: tr}
	if err := p.run(); err != nil {
		t.Fatal(err)
	}
	if len(p.failures) > 0 {
		t.Fatalf("%s: %v", name, p.failures)
	}
	return p
}

// declared is the part of BENCHMARK.json these tests check.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	d := readDeclared(t)
	// BENCHMARK.json gates a subset of the program's workloads, in order.
	next := 0
	for _, w := range d.Workloads {
		for next < len(workloadNames) && workloadNames[next] != w.Name {
			next++
		}
		if next == len(workloadNames) {
			t.Errorf("BENCHMARK.json workload %q is not a program workload in order %v", w.Name, workloadNames)
			break
		}
		next++
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd)
	check("per_layer", d.PerLayer, perLayer)
}

func TestEveryDeclaredMetricEmitted(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 1e-9, traced: traced, tiny: true,
				spans: filepath.Join(t.TempDir(), "spans.json")}
			res, notes, err := benchmark(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d: %v", w, traced, res.Correct, res.Failed, res.Attempted, notes)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(o.spans); err != nil {
					t.Errorf("%s: spans not written: %v", w, err)
				}
			}
		}
	}
}

func TestTracedModelMetricsMatchUntraced(t *testing.T) {
	for _, w := range workloadNames {
		plain := tinyPass(t, w, 5, nil, 0)
		traced := tinyPass(t, w, 5, newTracer(), 0)
		if plain.sim != traced.sim {
			t.Errorf("%s: traced sim metrics %+v, untraced %+v", w, traced.sim, plain.sim)
		}
		if plain.first != traced.first {
			t.Errorf("%s: traced counts %+v, untraced %+v", w, traced.first, plain.first)
		}
	}
}

func TestParallelModelMetricsMatchSequential(t *testing.T) {
	par := tinyPass(t, synthChan784, 9, nil, 2)
	seq := tinyPass(t, synthChan784, 9, nil, 1)
	if par.sim != seq.sim {
		t.Errorf("2 workers: sim metrics %+v, 1 worker %+v", par.sim, seq.sim)
	}
	if par.first != seq.first {
		t.Errorf("2 workers: counts %+v, 1 worker %+v", par.first, seq.first)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, true)
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.inputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.inputs(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() == b.digest() {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", name)
		}
	}
	// The synthetic workloads' inputs are a generator seed; show it changes
	// the traffic the generator offers.
	if a, b := tinyPass(t, synthPHY256, 1, nil, 0), tinyPass(t, synthPHY256, 2, nil, 0); a.first == b.first {
		t.Errorf("seeds 1 and 2 offered identical traffic: %+v", a.first)
	}
}
