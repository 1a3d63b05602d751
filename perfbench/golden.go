package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json holds the fingerprints recorded at the commit that last
// changed the simulator's results; regenerate it with --record.
//
//go:embed golden.json
var goldenJSON []byte

// goldenTable maps a workload and a seed to the fingerprints of the
// workload's scenarios, in declaration order.
type goldenTable map[string]map[uint64][]fingerprint

func loadGolden() (goldenTable, error) {
	g := goldenTable{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// lookup returns the fingerprints w must reproduce at seed, or nil when
// none were recorded for that seed.
func (g goldenTable) lookup(w *benchWorkload, seed uint64) ([]fingerprint, error) {
	fps, ok := g[w.name][seed]
	if !ok {
		return nil, nil
	}
	if len(fps) != len(w.scenarios) {
		return nil, fmt.Errorf("%s seed %d: %d recorded fingerprints for %d scenarios",
			w.name, seed, len(fps), len(w.scenarios))
	}
	return fps, nil
}

// record runs every workload once per seed in [0, seeds) and returns
// their fingerprints.
func record(seeds uint64) (goldenTable, error) {
	g := goldenTable{}
	for _, name := range workloadNames {
		w, err := newWorkload(name, fullSize)
		if err != nil {
			return nil, err
		}
		g[name] = map[uint64][]fingerprint{}
		for seed := uint64(0); seed < seeds; seed++ {
			r := runRepetition(w, seed, nil, nil)
			if len(r.failures) > 0 {
				return nil, r.failures[0]
			}
			g[name][seed] = r.fps
		}
	}
	return g, nil
}
