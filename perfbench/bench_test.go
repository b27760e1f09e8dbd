package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"grads/internal/telemetry"
)

// tinyOptions runs one workload at the self-test size with nothing
// recorded, writing its report lines to the test's null device.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { devnull.Close() })
	return options{
		workload: workload, seed: 3, seconds: 0.2, trace: trace, tiny: true,
		digests: map[string]string{}, out: devnull,
		profile: filepath.Join(t.TempDir(), "cpu.pprof"),
	}
}

// TestTinyWorkloadsReportEveryMetric: at the tiny size every workload
// passes its checks and prints every named metric with its unit, untraced
// (end-to-end) and traced (per-layer).
func TestTinyWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyOptions(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestPerturbedDigestFails: a run matching its recorded digest passes; the
// same run against a recorded digest with one digit changed fails every
// batch, so fail_ratio is non-zero.
func TestPerturbedDigestFails(t *testing.T) {
	for _, w := range workloadNames {
		wl, err := newWorkload(w, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := wl.setup(); err != nil {
			t.Fatal(err)
		}
		o := tinyOptions(t, w, false)
		o.digests = map[string]string{w + "/3": wl.run(nil, nil, nil).digest}
		res, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d failed against its own digest", w, res.Failed)
		}
		o.perturb = true
		res, err = run(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: perturbed digest not caught: correct=%v failed=%d of %d", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestRecordedDigestsHold: the recorded digests of seed 1 at full size
// still hold (the speed-only contract of a change to the program).
func TestRecordedDigestsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size batches")
	}
	var rec map[string]string
	if err := json.Unmarshal(digestsJSON, &rec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		want, ok := rec[w+"/1"]
		if !ok {
			t.Errorf("%s: no digest recorded for seed 1", w)
			continue
		}
		wl, err := newWorkload(w, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := wl.setup(); err != nil {
			t.Fatal(err)
		}
		b := wl.run(nil, nil, nil)
		if b.failed != 0 || b.digest != want {
			t.Errorf("%s seed 1: %d failed, digest %s, recorded %s %v", w, b.failed, b.digest, want, b.notes)
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json names exactly the workloads and
// metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s here", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestAttributeTraces: samples from `pprof -traces` output are charged to
// every grads/internal layer on their stack (cumulative) and to the
// innermost one (self); frames outside the program count for neither.
func TestAttributeTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 4
-----------+-------------------------------------------------------
         3   runtime.mallocgc
             grads/internal/perfmodel.(*Memo).Get (inline)
             grads/internal/core.(*Scheduler).ScheduleWith
             main.main
-----------+-------------------------------------------------------
         1   grads/internal/core.rank
             grads/internal/core.(*Scheduler).ScheduleWith
-----------+-------------------------------------------------------
`
	samples, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0].count != 3 || len(samples[0].funcs) != 4 {
		t.Fatalf("parsed %+v", samples)
	}
	s := attribute(samples)
	want := map[string][2]float64{"perfmodel": {0.75, 0.75}, "core": {1, 0.25}}
	for l, w := range want {
		if s.cum[l] != w[0] || s.self[l] != w[1] {
			t.Errorf("%s: cum %v self %v, want %v", l, s.cum[l], s.self[l], w)
		}
	}
	if s.samples != 4 || len(s.cum) != 2 {
		t.Errorf("samples %d, layers %v", s.samples, s.cum)
	}
}

// opsWorkload is a batch of n operations that each allocate 1 MB.
type opsWorkload struct{ n int }

var opsSink []byte

func (w opsWorkload) setup() error          { return nil }
func (w opsWorkload) verify(*spanLog) batch { return batch{} }
func (w opsWorkload) run(_ *telemetry.Telemetry, _ *spanLog, m *meter) batch {
	for i := 0; i < w.n; i++ {
		m.between()
		opsSink = make([]byte, 1<<20)
	}
	return batch{ops: w.n}
}

// TestMeasureSegments: with a reference timer, a batch is measured in
// segments of segmentOps operations with the reference kernel timed
// between them, and the kernel's own allocations are not counted.
func TestMeasureSegments(t *testing.T) {
	ref := newRefTimer("sched")
	r := measure(opsWorkload{n: 3}, nil, nil, ref, 1)
	if len(ref.times) != 4 {
		t.Errorf("%d reference timings, want 1 + 3 segments", len(ref.times))
	}
	if r.alloc < 3<<20 || r.alloc > 6<<20 {
		t.Errorf("allocated %d bytes, want about 3 MB (the reference kernel allocates about 20 MB per timing)", r.alloc)
	}
	if r.b.ops != 3 || r.normCPU <= 0 || r.cpu <= 0 {
		t.Errorf("ops %d, cpu %v, normalised %v", r.b.ops, r.cpu, r.normCPU)
	}
	ref = newRefTimer("sched")
	measure(opsWorkload{n: 3}, nil, nil, ref, 2)
	if len(ref.times) != 3 {
		t.Errorf("%d reference timings with 2 operations per segment, want 1 + 2 segments", len(ref.times))
	}
}
