// Command perfbench is the repository's benchmark. It drives one seeded
// workload through ras.System (with the backend, allocator, health and
// reservation layers behind it) in closed-loop virtual hours, checks every
// round's output, and prints each metric by name with its unit. The last
// line of standard output is one JSON object with the end-to-end metrics,
// or with --trace 1 the per-layer metrics of a traced run, which also
// writes its spans and per-round records to --trace-file.
//
//	go run . --workload hourly_churn --seed 9 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the baselines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var p params
	var traceFlag int
	var traceFile string
	flag.StringVar(&p.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&p.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&p.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&traceFile, "trace-file", "", "where the traced run writes its trace (default .bench_build/trace/<workload>-seed<seed>.json)")
	flag.Parse()
	p.setups, p.setupSeconds = setupRepeats, setupSeconds

	run, ok := workloads[p.workload]
	switch {
	case !ok:
		fail("unknown workload %q (have %s)", p.workload, strings.Join(workloadNames(), ", "))
	case traceFlag != 0 && traceFlag != 1:
		fail("--trace must be 0 or 1")
	case p.seconds <= 0:
		fail("--seconds must be positive")
	}
	p.trace = traceFlag == 1
	if traceFile == "" {
		traceFile = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", p.workload, p.seed))
	}

	b := newBench(p)
	if err := run(b); err != nil {
		fail("%s: %v", p.workload, err)
	}
	b.stopHeapSampler()

	fmt.Printf("perfbench workload=%s seed=%d trace=%d rounds=%d operations=%d stream=%016x\n",
		p.workload, p.seed, traceFlag, len(b.rounds), b.nops, b.ops.Sum64())
	for _, r := range b.rounds {
		fmt.Println(roundLine(r))
	}
	e2e := b.endToEnd()
	for _, m := range e2e {
		fmt.Printf("metric %-28s %14.6g %s\n", m.name, m.Value, m.Unit)
	}
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"round", walls(b.rounds)}, {"round cpu", cpus(b.rounds)}} {
		if n := len(t.xs); n == 0 {
			continue
		} else if pct, ok := tailPercentile(n); ok {
			fmt.Printf("%s tail: p%g of %d rounds = %.4f s\n", t.name, pct, n, percentile(t.xs, pct))
		} else {
			fmt.Printf("%s tail: %d rounds are too few for any percentile with %d samples beyond\n", t.name, n, minBeyond)
		}
	}
	for _, e := range b.firstErrs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}

	result := map[string]metric{}
	if p.trace {
		b.spanCost = spanCost()
		layers := b.perLayer()
		for _, m := range layers {
			fmt.Printf("layer  %-28s %14.6g %s\n", m.name, m.Value, m.Unit)
			result[m.name] = m.metric
		}
		if err := b.writeTrace(traceFile); err != nil {
			fail("write trace: %v", err)
		}
		fmt.Println("trace written to", traceFile)
	} else {
		for _, m := range e2e {
			if boundedEndToEnd[m.name] {
				result[m.name] = m.metric
			}
		}
	}
	attempted, failed := b.operations()
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.violations == 0, attempted, failed, result})
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(line))
	if b.violations > 0 {
		os.Exit(1)
	}
}

// Set-up runs at least setupRepeats times and for at least setupSeconds,
// so that set-ups of a fraction of a millisecond still give a steady
// median.
const (
	setupRepeats = 5
	setupSeconds = 1.0
)

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func roundLine(r roundRec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "round %3d hour=%-3d %-11s %-9s wall=%.4fs cpu=%.4fs objective=%.6g moves=%d/%d delta=%d",
		r.Round, r.Hour, r.Backend, r.Status, r.WallS, r.CPUS, r.Objective, r.MovesInUse, r.MovesIdle, r.DeltaServers)
	for i, ph := range r.Phases {
		fmt.Fprintf(&sb, " p%d[%s %.2fs nodes=%d root=%d warm=%t patch=%t limit=%t]",
			i+1, ph.Status, ph.TotalS, ph.Nodes, ph.RootLPIters, ph.WarmRoot, ph.Patched, ph.TimeLimited)
	}
	if r.Failed {
		fmt.Fprintf(&sb, " FAILED(%s)", r.Reason)
	}
	return sb.String()
}

// writeTrace writes the traced run's per-round records, per-layer busy
// times and raw spans as one JSON document.
func (b *bench) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload   string      `json:"workload"`
		Seed       int64       `json:"seed"`
		SpanCostNS int64       `json:"span_cost_ns"`
		Rounds     []roundRec  `json:"rounds"`
		Layers     []layerTime `json:"layers"`
		Spans      []span      `json:"spans"`
	}{b.p.workload, b.p.seed, b.spanCost.Nanoseconds(), b.rounds, b.tr.layers(), b.tr.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
