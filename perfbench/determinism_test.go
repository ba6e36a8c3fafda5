package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// shortRounds is how many measured rounds the determinism runs make per
// workload: enough to cover a delta round, few enough to stay short.
var shortRounds = map[string]int{
	"hourly_churn":      2,
	"cold_solve":        1,
	"request_churn":     4,
	"partitioned_solve": 2,
}

func shortRun(t *testing.T, workload string, seed int64) *bench {
	t.Helper()
	b := newBench(params{workload: workload, seed: seed, seconds: 1, setups: 1, rounds: shortRounds[workload]})
	if err := workloads[workload](b); err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return b
}

// deterministic is what must repeat exactly at one seed: the operation
// stream, and per round the objective, the moves, the capacity shortfall,
// and the node and LP counts of every phase. Times are left out. A round
// that stops on the clock returns whatever its search had reached, and so
// does every round after it that starts from its targets, so the facts end
// at the first time-limited round and TimeLimited says that one occurred.
type deterministic struct {
	Stream      uint64
	Ops         int
	Rounds      []roundFacts
	ObjMean     float64
	ShortRRU    float64
	TimeLimited bool
}

type roundFacts struct {
	Objective             float64
	MovesInUse, MovesIdle int
	ShortRRU              float64
	Phases                []phaseCounts
}

type phaseCounts struct{ Nodes, LPSolves, LPIters, RootLPIters int }

func factsOf(b *bench) deterministic {
	d := deterministic{Stream: b.ops.Sum64(), Ops: b.nops}
	for _, r := range b.rounds {
		if r.Reason == "time limit" {
			d.TimeLimited = true
			return d
		}
		f := roundFacts{Objective: r.Objective, MovesInUse: r.MovesInUse, MovesIdle: r.MovesIdle, ShortRRU: r.ShortRRU}
		for _, ph := range r.Phases {
			f.Phases = append(f.Phases, phaseCounts{ph.Nodes, ph.LPSolves, ph.LPIters, ph.RootLPIters})
		}
		d.Rounds = append(d.Rounds, f)
	}
	for _, m := range b.endToEnd() {
		switch m.name {
		case "objective_mean":
			d.ObjMean = m.Value
		case "capacity_short_rru":
			d.ShortRRU = m.Value
		}
	}
	return d
}

func TestDeterminism(t *testing.T) {
	for _, w := range workloadNames() {
		w := w
		t.Run(w, func(t *testing.T) {
			a, b := factsOf(shortRun(t, w, 3)), factsOf(shortRun(t, w, 3))
			if a.TimeLimited || b.TimeLimited {
				// On a machine this slow (the race detector, say) the
				// rounds stop on the clock, and nothing is deterministic.
				t.Skip("a round reached its phase time limit")
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two runs at seed 3 differ:\n%+v\n%+v", a, b)
			}
			if len(a.Rounds) != shortRounds[w] {
				t.Fatalf("%d rounds, want %d", len(a.Rounds), shortRounds[w])
			}
			if c := factsOf(shortRun(t, w, 4)); c.Stream == a.Stream {
				t.Fatalf("seeds 3 and 4 gave the same operation stream %016x", c.Stream)
			}
		})
	}
}

// TestResultMatchesBenchmarkJSON checks that every workload BENCHMARK.json
// lists is one the program runs, and that the result lines carry exactly
// the metrics it declares, with the declared units.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not run", w.Name)
		}
	}

	b := &bench{tr: newTracer(), rounds: []roundRec{{Backend: "mip", WallS: 1}}}
	e2e := map[string]string{}
	for _, m := range b.endToEnd() {
		if boundedEndToEnd[m.name] {
			e2e[m.name] = m.Unit
		}
	}
	layers := map[string]string{}
	for _, m := range b.perLayer() {
		layers[m.name] = m.Unit
	}
	want := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	if w := want(spec.EndToEnd); !reflect.DeepEqual(e2e, w) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", e2e, w)
	}
	if w := want(spec.PerLayer); !reflect.DeepEqual(layers, w) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", layers, w)
	}
}
