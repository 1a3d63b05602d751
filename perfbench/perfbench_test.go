package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func tinyWorkload(t *testing.T, name string) *benchWorkload {
	t.Helper()
	w, err := newWorkload(name, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// testRefLoop maps a reference loop that the test's cleanup unmaps.
func testRefLoop(t *testing.T) *refLoop {
	t.Helper()
	l, err := newRefLoop()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := l.close(); err != nil {
			t.Error(err)
		}
	})
	return l
}

// Every workload, shrunk, passes its output check.
func TestTinyWorkloadsPassOutputCheck(t *testing.T) {
	for _, name := range workloadNames {
		r := runRepetition(tinyWorkload(t, name), 1, nil, nil)
		if r.attempted == 0 || len(r.failures) > 0 {
			t.Fatalf("%s: %d scenarios, failures %v", name, r.attempted, r.failures)
		}
	}
}

// Two traced runs of a workload report identical layer counters.
func TestTracedCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		w := tinyWorkload(t, name)
		a := runRepetition(w, 2, nil, newTracer())
		b := runRepetition(w, 2, nil, newTracer())
		if len(a.failures)+len(b.failures) > 0 {
			t.Fatalf("%s: failures %v %v", name, a.failures, b.failures)
		}
		ca, cb := counterMetrics(a.counters), counterMetrics(b.counters)
		if !reflect.DeepEqual(ca, cb) {
			t.Errorf("%s: counters differ:\n%v\n%v", name, ca, cb)
		}
		if ca["sim.events"] == 0 || ca["workload.received"] == 0 {
			t.Errorf("%s: counters read nothing: %v", name, ca)
		}
	}
}

// A fingerprint that differs from the recorded one counts as a failed
// scenario; the unperturbed record passes.
func TestPerturbedGoldenFails(t *testing.T) {
	w := tinyWorkload(t, "incast")
	r := runRepetition(w, 3, nil, nil)
	if len(r.failures) > 0 {
		t.Fatal(r.failures)
	}
	good := goldenTable{"incast": {3: r.fps}}
	if got := runRepetition(w, 3, good, nil); len(got.failures) > 0 {
		t.Fatalf("recorded fingerprints rejected: %v", got.failures)
	}
	bad := append([]fingerprint(nil), r.fps...)
	bad[2].P99ps++
	got := runRepetition(w, 3, goldenTable{"incast": {3: bad}}, nil)
	if len(got.failures) != 1 {
		t.Fatalf("perturbed fingerprint: %d failures %v, want 1", len(got.failures), got.failures)
	}
	short := goldenTable{"incast": {3: r.fps[:1]}}
	if got := runRepetition(w, 3, short, nil); len(got.failures) == 0 {
		t.Fatal("a record covering too few scenarios was accepted")
	}
}

// A run reports exactly the metrics BENCHMARK.json declares, traced or
// not, and the declared workloads are the ones the binary knows.
func TestRunMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Errorf("BENCHMARK.json declares workloads %v, the binary runs %v", declared, workloadNames)
	}
	for _, c := range []struct {
		trace    bool
		declared []struct{ Name, Unit string }
	}{{false, bj.EndToEnd}, {true, bj.PerLayer}} {
		rep, spans, failures := run(runConfig{w: tinyWorkload(t, "clos"), seed: 1, trace: c.trace, probeBudget: time.Millisecond, ref: testRefLoop(t)})
		if !rep.Correct || rep.Failed != 0 || len(failures) > 0 {
			t.Fatalf("trace=%v: %+v %v", c.trace, rep, failures)
		}
		if c.trace == (len(spans) == 0) {
			t.Errorf("trace=%v recorded %d spans", c.trace, len(spans))
		}
		if len(rep.Metrics) != len(c.declared) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", c.trace, len(rep.Metrics), len(c.declared))
		}
		for _, d := range c.declared {
			if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s = %+v, declared unit %s", c.trace, d.Name, m, d.Unit)
			}
		}
	}
}

// Bad arguments exit non-zero without a result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "clos", "--trace", "2"},
		{"--workload", "clos", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := benchMain(args, &out, &errOut); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// The recorded fingerprints parse and cover every scenario.
func TestGoldenCoversScenarios(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, fullSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(g[name]) == 0 {
			t.Errorf("%s: no recorded fingerprints", name)
		}
		for seed := range g[name] {
			if _, err := g.lookup(w, seed); err != nil {
				t.Error(err)
			}
		}
	}
}

// The reference loop's tables stay off the Go heap, so the collector
// paces the program as it would without the loop.
func TestRefLoopOffHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := testRefLoop(t)
	if d := l.measure(); d <= 0 {
		t.Fatalf("a measurement took %v", d)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("the Go heap grew by %d bytes with the loop's tables live", grew)
	}
}
