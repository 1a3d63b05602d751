package experiments

import (
	"strings"
	"testing"
	"time"

	"lauberhorn/internal/sim"
	"lauberhorn/internal/stats"
)

// renderAll flattens a result set to the exact text a harness would print.
func renderAll(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		for _, tb := range r.Tables {
			b.WriteString(tb.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestRunnerDeterminism is the regression gate for the parallel harness:
// a serial run and a 4-way parallel run of the same experiments must
// produce byte-identical tables, because every experiment owns its
// simulator universe and draws randomness only from its own seeds.
// Run under `go test -race` this also exercises the pool for data races.
func TestRunnerDeterminism(t *testing.T) {
	exps, err := Select("e1,e2,e5,e8,e11")
	if err != nil {
		t.Fatal(err)
	}
	serial := (&Runner{Workers: 1}).Run(exps)
	parallel := (&Runner{Workers: 4}).Run(exps)
	for _, r := range append(serial, parallel...) {
		if r.Err != nil {
			t.Fatalf("%s failed: %v", r.Experiment.ID, r.Err)
		}
	}
	a, b := renderAll(serial), renderAll(parallel)
	if a != b {
		t.Fatalf("serial and parallel tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("runs produced no output")
	}
}

// synthetic builds a fake experiment for pool-behavior tests.
func synthetic(id string, run func(m *sim.Meter) []*stats.Table) Experiment {
	return Experiment{ID: id, Title: id, Source: "test",
		Run: func(m *sim.Meter, _ Options) []*stats.Table { return run(m) }}
}

func oneRowTable(id string) []*stats.Table {
	tb := stats.NewTable(id, "col")
	tb.AddRow(id)
	return []*stats.Table{tb}
}

// TestRunStreamOrder checks that results stream in presentation order
// even when later experiments finish first.
func TestRunStreamOrder(t *testing.T) {
	delays := []time.Duration{30 * time.Millisecond, 1 * time.Millisecond, 10 * time.Millisecond}
	var exps []Experiment
	for i, d := range delays {
		d := d
		id := string(rune('a' + i))
		exps = append(exps, synthetic(id, func(m *sim.Meter) []*stats.Table {
			time.Sleep(d)
			return oneRowTable(id)
		}))
	}
	var emitted []string
	results := (&Runner{Workers: 3}).RunStream(exps, func(r Result) {
		emitted = append(emitted, r.Experiment.ID)
	})
	if got := strings.Join(emitted, ""); got != "abc" {
		t.Fatalf("emission order %q, want abc", got)
	}
	for i, r := range results {
		if r.Experiment.ID != exps[i].ID {
			t.Fatalf("result %d holds %s", i, r.Experiment.ID)
		}
		if r.Wall <= 0 {
			t.Errorf("result %s has no wall clock", r.Experiment.ID)
		}
	}
}

// TestRunnerPanicIsolated checks a panicking experiment becomes an error
// result without poisoning its neighbors.
func TestRunnerPanicIsolated(t *testing.T) {
	exps := []Experiment{
		synthetic("ok1", func(m *sim.Meter) []*stats.Table { return oneRowTable("ok1") }),
		synthetic("boom", func(m *sim.Meter) []*stats.Table { panic("kaput") }),
		synthetic("ok2", func(m *sim.Meter) []*stats.Table { return oneRowTable("ok2") }),
	}
	results := (&Runner{Workers: 2}).Run(exps)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy experiments failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "kaput") {
		t.Fatalf("panic not captured: %v", results[1].Err)
	}
	sum := Summarize(results)
	if sum.Failures != 1 || sum.Experiments != 3 || sum.Tables != 2 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestRunnerMetersEvents checks per-experiment event accounting stays
// exact under parallelism: each experiment sees only its own sims.
func TestRunnerMetersEvents(t *testing.T) {
	mk := func(id string, events int) Experiment {
		return synthetic(id, func(m *sim.Meter) []*stats.Table {
			s := sim.New(1)
			m.Observe(s)
			for i := 0; i < events; i++ {
				s.At(sim.Time(i)*sim.Nanosecond, "e", func() {})
			}
			s.Run()
			return oneRowTable(id)
		})
	}
	exps := []Experiment{mk("a", 10), mk("b", 250), mk("c", 7)}
	results := (&Runner{Workers: 3}).Run(exps)
	want := []uint64{10, 250, 7}
	for i, r := range results {
		if r.Events != want[i] {
			t.Errorf("%s events = %d, want %d", r.Experiment.ID, r.Events, want[i])
		}
		if r.Sims != 1 {
			t.Errorf("%s sims = %d, want 1", r.Experiment.ID, r.Sims)
		}
	}
}

// TestSelect pins the -run validation behavior.
func TestSelect(t *testing.T) {
	if exps, err := Select("all"); err != nil || len(exps) != len(All()) {
		t.Fatalf("Select(all) = %d exps, err %v", len(exps), err)
	}
	if exps, err := Select(" e5 , e1 "); err != nil ||
		len(exps) != 2 || exps[0].ID != "e5" || exps[1].ID != "e1" {
		t.Fatalf("Select trim/order broken: %v, err %v", exps, err)
	}
	for spec, wantErr := range map[string]string{
		"e1,,e2":  "empty experiment ID",
		"e1,e1":   "duplicate experiment ID",
		"e1,all":  "mixes 'all'",
		"e1,nope": "unknown experiment",
		"e20":     "unknown experiment",
		"":        "empty experiment ID",
	} {
		_, err := Select(spec)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("Select(%q) err = %v, want containing %q", spec, err, wantErr)
		}
	}
}
