package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"ras"
	"ras/internal/allocator"
	"ras/internal/broker"
	"ras/internal/mip"
	"ras/internal/mover"
	"ras/internal/reservation"
	"ras/internal/solver"
)

// params are one run's settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// Set-up is repeated at least setups times and until setupSeconds of
	// it have passed; setup_s is the median repetition and the last
	// set-up is the one the run continues from.
	setups       int
	setupSeconds float64
	// rounds, when positive, stops the run after that many measured rounds
	// instead of after seconds, so tests get the same amount of work on any
	// machine.
	rounds int
}

// phaseRec is one solver phase of a round, as solver.PhaseStats reports it.
type phaseRec struct {
	Status      string  `json:"status"`
	TimeLimited bool    `json:"time_limited"`
	TotalS      float64 `json:"total_s"`
	MIPS        float64 `json:"mip_s"`
	RASBuildS   float64 `json:"ras_build_s"`
	SolverBuild float64 `json:"solver_build_s"`
	InitStateS  float64 `json:"initial_state_s"`
	Nodes       int     `json:"nodes"`
	NodeBound   bool    `json:"node_bound"`
	LPSolves    int     `json:"lp_solves"`
	LPIters     int     `json:"lp_iters"`
	LPLimited   int     `json:"lp_limited"`
	RootLPIters int     `json:"root_lp_iters"`
	WarmRoot    bool    `json:"warm_root"`
	Patched     bool    `json:"patched"`
	AssignVars  int     `json:"assign_vars"`
	// GapPreemptions is omitted when no incumbent was found (the gap is
	// infinite then, which JSON cannot carry).
	GapPreemptions *float64 `json:"gap_preemptions,omitempty"`
}

// roundRec is everything the benchmark learned about one round.
type roundRec struct {
	Round   int    `json:"round"`
	Hour    int    `json:"hour"`
	Backend string `json:"backend"`
	// TouchUp marks a localsearch round between hourly rounds; round
	// latency metrics leave it out and localsearch.solve_s reports it.
	TouchUp bool   `json:"touch_up,omitempty"`
	Status  string `json:"status"`
	// Failed marks a round that errored, returned no solution, or reached a
	// phase time limit; Reason says which.
	Failed bool   `json:"failed"`
	Reason string `json:"reason,omitempty"`

	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	BackendS  float64 `json:"backend_s"`
	SnapshotS float64 `json:"snapshot_s"`
	EvaluateS float64 `json:"evaluate_s"`

	Objective  float64 `json:"objective"`
	Drift      float64 `json:"objective_drift"`
	MovesInUse int     `json:"moves_in_use"`
	MovesIdle  int     `json:"moves_idle"`
	ShortRRU   float64 `json:"capacity_short_rru"`

	DeltaServers int `json:"delta_servers"`
	ResChanges   int `json:"reservation_changes"`
	ServersDown  int `json:"servers_down"`

	Replacements    int `json:"replacements"`
	ReplaceMiss     int `json:"replace_miss"`
	ProfileSwitches int `json:"profile_switches"`
	Evictions       int `json:"evictions"`

	Phases []phaseRec `json:"phases,omitempty"`

	LPIters          int64 `json:"lp_iters"`
	LPDualIters      int64 `json:"lp_dual_iters"`
	LPRefactors      int64 `json:"lp_refactorizations"`
	LPWarmHits       int64 `json:"lp_warm_hits"`
	LPWarmMisses     int64 `json:"lp_warm_misses"`
	LPSingular       int64 `json:"lp_singular_repairs"`
	FallbackRebuilds int64 `json:"fallback_rebuilds"`

	LSSteps     int `json:"ls_steps,omitempty"`
	LSEvaluated int `json:"ls_evaluated,omitempty"`

	POPParts   int     `json:"pop_partitions,omitempty"`
	POPSubMaxS float64 `json:"pop_sub_max_s,omitempty"`
	POPSubSumS float64 `json:"pop_sub_sum_s,omitempty"`
	POPRepair  int     `json:"pop_repair_moves,omitempty"`
}

// bench drives one workload and collects what it measures.
type bench struct {
	p   params
	cfg solver.Config
	tr  *tracer

	measuring bool
	start     time.Time
	setupS    []float64

	rounds []roundRec

	placeUS, stopUS        []float64
	placeTried, placeFails int
	stopTried, stopFails   int
	capTried, capFails     int
	tickS                  []float64

	ops  hash.Hash64
	nops int

	violations int
	firstErrs  []string
	spanCost   time.Duration

	// heapPeak is the largest heap seen in the measured window; heapStop
	// ends the sampler goroutine and heapDone closes when it has ended.
	heapPeak atomic.Uint64
	heapStop chan struct{}
	heapDone chan struct{}

	// Per-System tracking: the System the workload currently drives, the
	// broker and store versions its last round saw, and its mover counters
	// at the end of that round.
	sys         *ras.System
	lastVersion uint64
	seenRound   bool
	lastStore   int
	lastMover   mover.Stats
	lastEvicted int
}

// solverConfig is the solver configuration of every workload: production
// defaults (2 % shared buffer, 10 s per phase, spelled out because the phase
// limit is the benchmark's latency limit) with the large-bench node budget,
// which keeps cold solves of the 2160-server region node-bound and so
// deterministic. ras.Options.Workers overrides Workers per workload.
func solverConfig() solver.Config {
	return solver.Config{
		Phase1TimeLimit: 10 * time.Second,
		Phase2TimeLimit: 10 * time.Second,
		MaxNodes:        100,
		Workers:         1,
	}
}

func newBench(p params) *bench {
	b := &bench{p: p, cfg: solverConfig(), ops: fnv.New64a()}
	if p.trace {
		b.tr = newTracer()
	}
	return b
}

// op appends one generated input or observed outcome to the run's operation
// stream; two runs at one seed must produce the same stream.
func (b *bench) op(format string, args ...any) {
	fmt.Fprintf(b.ops, format, args...)
	b.ops.Write([]byte{'\n'})
	b.nops++
}

func (b *bench) violate(round int, format string, args ...any) {
	b.violations++
	if len(b.firstErrs) < 20 {
		b.firstErrs = append(b.firstErrs, fmt.Sprintf("round %d: ", round)+fmt.Sprintf(format, args...))
	}
}

// timed runs f, records it as a span, and returns its duration in seconds.
func (b *bench) timed(name string, round int, f func()) float64 {
	id := b.tr.begin(name, round)
	t := time.Now()
	f()
	d := time.Since(t).Seconds()
	b.tr.end(id)
	return d
}

// setup runs f at least p.setups times and until p.setupSeconds of set-up
// have passed, recording the CPU time of each repetition, then starts the
// measured window and the heap sampler. The operation stream restarts with
// every repetition so that it describes the set-up the run continues from.
func (b *bench) setup(f func() error) error {
	start := time.Now()
	for i := 0; i < b.p.setups || time.Since(start).Seconds() < b.p.setupSeconds; i++ {
		b.ops.Reset()
		b.nops = 0
		cpu := processCPU()
		if err := f(); err != nil {
			return err
		}
		b.setupS = append(b.setupS, processCPU()-cpu)
	}
	b.measuring = true
	b.start = time.Now()
	b.startHeapSampler()
	return nil
}

// done reports whether the measured window is over. With p.rounds set it
// is over after that many rounds. Otherwise it is over at the first cycle
// end (cycleEnd) after p.seconds have passed: a workload whose rounds come
// in cycles, such as a maintenance wave every 6 hours, measures whole
// cycles, so every run holds the same mix of rounds.
func (b *bench) done(cycleEnd bool) bool {
	if b.p.rounds > 0 {
		return len(b.rounds) >= b.p.rounds
	}
	return cycleEnd && time.Since(b.start).Seconds() >= b.p.seconds
}

// unmeasured runs f as set-up work inside the measured window, such as a
// later episode's warm-up: its rounds and calls are checked but not
// recorded.
func (b *bench) unmeasured(f func() error) error {
	b.measuring = false
	defer func() { b.measuring = true }()
	return f()
}

// use makes sys the System later calls drive.
func (b *bench) use(sys *ras.System) {
	b.sys = sys
	b.seenRound = false
	b.lastStore = sys.Reservations().Version()
	b.lastMover = sys.Mover().Stats()
	b.lastEvicted = evictionsOf(sys.Allocator())
}

// roundID is the id spans of the current round carry (-1 during set-up).
func (b *bench) roundID() int {
	if !b.measuring {
		return -1
	}
	return len(b.rounds)
}

// heapObjects is the runtime metric the heap sampler reads: the bytes of
// heap objects, live or not yet collected, which MemStats calls HeapAlloc.
const heapObjects = "/memory/classes/heap/objects:bytes"

// readHeap records the current heap in heapPeak if it is the largest yet.
func (b *bench) readHeap() {
	s := []rtmetrics.Sample{{Name: heapObjects}}
	rtmetrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := b.heapPeak.Load()
		if v <= old || b.heapPeak.CompareAndSwap(old, v) {
			return
		}
	}
}

// startHeapSampler reads the heap every millisecond until stopHeapSampler,
// so peak_heap_mb sees the memory a round allocates and frees while it
// runs (model build, LP factorisation), not only what it retains.
func (b *bench) startHeapSampler() {
	b.heapStop, b.heapDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(b.heapDone)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-b.heapStop:
				return
			case <-t.C:
				b.readHeap()
			}
		}
	}()
}

// stopHeapSampler ends the sampler and waits for it, taking a last reading.
func (b *bench) stopHeapSampler() {
	if b.heapStop == nil {
		return
	}
	close(b.heapStop)
	<-b.heapDone
	b.heapStop = nil
	b.readHeap()
}

// endRound reads the heap a round leaves behind, garbage included, then
// collects it, so that every round starts from the same clean heap and its
// peak does not depend on where the previous round left the collector.
func (b *bench) endRound() {
	b.readHeap()
	runtime.GC()
}

// timeLimited reports whether a search that ran for total under limit was
// stopped by the limit rather than finishing on its own (finished says it
// did: an optimal phase, a spent node or step budget). The 2 % margin
// absorbs the bookkeeping between the deadline firing and the search
// returning, which PhaseStats does not time.
func timeLimited(total, limit time.Duration, finished bool) bool {
	return !finished && total >= limit-limit/50
}

func phaseOf(p solver.PhaseStats, limit time.Duration, maxNodes int) phaseRec {
	finished := p.Status == mip.Optimal || p.Nodes >= maxNodes
	r := phaseRec{
		Status:      p.Status.String(),
		TimeLimited: timeLimited(p.Total(), limit, finished),
		TotalS:      p.Total().Seconds(),
		MIPS:        p.MIP.Seconds(),
		RASBuildS:   p.RASBuild.Seconds(),
		SolverBuild: p.SolverBuild.Seconds(),
		InitStateS:  p.InitialState.Seconds(),
		Nodes:       p.Nodes,
		LPSolves:    p.LPSolves,
		LPIters:     p.LPIters,
		LPLimited:   p.LPLimited,
		RootLPIters: p.RootLPIters,
		WarmRoot:    p.WarmRoot,
		Patched:     p.ModelPatched,
		AssignVars:  p.AssignVars,
	}
	r.NodeBound = !r.TimeLimited && p.Nodes >= maxNodes
	if g := p.GapPreemptions; !math.IsInf(g, 0) && !math.IsNaN(g) {
		r.GapPreemptions = &g
	}
	return r
}

func solverPhases(res *solver.Result, cfg solver.Config) []phaseRec {
	out := []phaseRec{phaseOf(res.Phase1, cfg.Phase1TimeLimit, cfg.MaxNodes)}
	if res.RanPhase2 {
		out = append(out, phaseOf(res.Phase2, cfg.Phase2TimeLimit, cfg.MaxNodes))
	}
	return out
}

// localSearch is the local-search configuration of every workload: the
// backend's defaults, spelled out because its time limit is a latency
// limit as the solver's phase limits are, and its step budget tells a
// finished search from a stopped one.
var localSearch = ras.LocalSearchConfig{TimeLimit: 2 * time.Second, MaxSteps: 100000}

// round runs one continuous-optimization round on the current System with
// the named backend, checks its output, and records it when the measured
// window is open. Set-up rounds (the warm-up) are checked but not recorded.
func (b *bench) round(now ras.Clock, hour int, backendName string) {
	sys := b.sys
	id := b.roundID()
	rec := roundRec{Round: id, Hour: hour, Backend: backendName, TouchUp: backendName == "localsearch"}
	b.op("round hour=%d backend=%s", hour, backendName)

	var states []broker.ServerState
	var version uint64
	rec.SnapshotS = b.timed("broker.SnapshotAt", id, func() { states, version = sys.Broker().SnapshotAt() })
	if b.seenRound {
		if changed, ok := sys.Broker().ChangedSince(b.lastVersion); ok {
			rec.DeltaServers = len(changed)
		}
	}
	rsvs := sys.Reservations().All()
	storeVersion := sys.Reservations().Version()
	rec.ResChanges = storeVersion - b.lastStore
	planned, unplanned := sys.Broker().UnavailableCount()
	rec.ServersDown = planned + unplanned
	moverBefore := sys.Mover().Stats()

	var res *ras.SolveResult
	var err error
	var c counters
	cpu0 := processCPU()
	rec.WallS = b.timed("ras.SolveWith", id, func() {
		c = counted(func() { res, err = sys.SolveWith(context.Background(), now, backendName) })
	})
	rec.CPUS = processCPU() - cpu0
	b.lastVersion, b.seenRound, b.lastStore = version, true, storeVersion
	rec.LPIters, rec.LPDualIters, rec.LPRefactors = c.lpIters, c.lpDualIters, c.lpRefactors
	rec.LPWarmHits, rec.LPWarmMisses, rec.LPSingular = c.lpWarmHits, c.lpWarmMisses, c.lpSingularRepairs
	rec.FallbackRebuilds = c.fallbackRebuilds

	moverAfter := sys.Mover().Stats()
	rec.MovesInUse = moverAfter.MovesInUse - moverBefore.MovesInUse
	rec.MovesIdle = moverAfter.MovesUnused - moverBefore.MovesUnused
	rec.Replacements = moverAfter.Replacements - b.lastMover.Replacements
	rec.ReplaceMiss = moverAfter.ReplacementMiss - b.lastMover.ReplacementMiss
	rec.ProfileSwitches = moverAfter.ProfileSwitches - b.lastMover.ProfileSwitches
	b.lastMover = moverAfter
	evicted := evictionsOf(sys.Allocator())
	rec.Evictions = evicted - b.lastEvicted
	b.lastEvicted = evicted

	switch {
	case err != nil:
		rec.Failed, rec.Reason, rec.Status = true, "error: "+err.Error(), "error"
	case res.Status == ras.SolveNoSolution:
		rec.Status = res.Status.String()
		rec.Failed, rec.Reason = true, "no solution"
	default:
		b.recordResult(&rec, res)
		b.check(&rec, sys, rsvs, states, res)
	}
	// What a time-limited round returns depends on how far the search got,
	// so its outcome is left out of the stream.
	if rec.Reason == "time limit" {
		b.op("result hour=%d status=%s time-limited", hour, rec.Status)
	} else {
		b.op("result hour=%d status=%s failed=%t objective=%.6g moves=%d/%d", hour, rec.Status, rec.Failed,
			rec.Objective, rec.MovesInUse, rec.MovesIdle)
	}
	b.endRound()
	if b.measuring {
		b.rounds = append(b.rounds, rec)
	}
}

// recordResult copies the backend's own statistics into rec and decides
// whether the round reached a time limit.
func (b *bench) recordResult(rec *roundRec, res *ras.SolveResult) {
	rec.Status = res.Status.String()
	rec.BackendS = res.Elapsed.Seconds()
	switch {
	case res.MIP != nil:
		rec.Phases = solverPhases(res.MIP, b.cfg)
	case res.POP != nil:
		rec.POPParts = res.POP.Partitions
		rec.POPRepair = res.POP.Repair.Moves()
		for _, sub := range res.POP.Subs {
			t := sub.TotalTime().Seconds()
			rec.POPSubSumS += t
			rec.POPSubMaxS = math.Max(rec.POPSubMaxS, t)
			rec.Phases = append(rec.Phases, solverPhases(sub, b.cfg)...)
		}
	case res.LocalSearch != nil:
		rec.LSSteps = res.LocalSearch.Steps
		rec.LSEvaluated = res.LocalSearch.Evaluated
		ls := res.LocalSearch
		if timeLimited(ls.Elapsed, localSearch.TimeLimit, ls.Steps >= localSearch.MaxSteps) {
			rec.Failed, rec.Reason = true, "time limit"
		}
	}
	for _, ph := range rec.Phases {
		if ph.TimeLimited {
			rec.Failed, rec.Reason = true, "time limit"
		}
	}
}

// check applies the per-round correctness checks: the targets cover every
// server and name a live reservation, Unassigned or SharedBuffer; every
// running container sits on a server its reservation owns or borrows; and
// solver.Evaluate of the targets on the pre-round snapshot is finite.
func (b *bench) check(rec *roundRec, sys *ras.System, rsvs []reservation.Reservation,
	states []broker.ServerState, res *ras.SolveResult) {
	region := sys.Region()
	if len(res.Targets) != len(region.Servers) {
		b.violate(rec.Round, "%d targets for %d servers", len(res.Targets), len(region.Servers))
		return
	}
	live := map[reservation.ID]bool{ras.Unassigned: true, ras.SharedBuffer: true}
	for _, r := range rsvs {
		live[r.ID] = true
	}
	for i, tgt := range res.Targets {
		if !live[tgt] {
			b.violate(rec.Round, "server %d targets reservation %d, which does not exist", i, tgt)
		}
	}
	for _, st := range sys.Broker().Snapshot() {
		for _, c := range sys.Allocator().ContainersOn(st.ID) {
			owned := st.Current == c.Res && st.LoanedTo == ras.Unassigned
			if !owned && st.LoanedTo != c.Res {
				b.violate(rec.Round, "container %d of reservation %d runs on server %d (reservation %d, loaned to %d)",
					c.ID, c.Res, st.ID, st.Current, st.LoanedTo)
			}
		}
	}

	var ev solver.Eval
	in := solver.Input{Region: region, Reservations: rsvs, States: states}
	rec.EvaluateS = b.timed("solver.Evaluate", rec.Round, func() { ev = solver.Evaluate(in, b.cfg, res.Targets) })
	if math.IsInf(ev.Objective, 0) || math.IsNaN(ev.Objective) {
		b.violate(rec.Round, "Evaluate of the targets is %v", ev.Objective)
		return
	}
	rec.Objective = ev.Objective
	rec.Drift = res.Objective - ev.Objective

	b.timed("ras.GuaranteedRRUs", rec.Round, func() {
		for _, r := range sys.Reservations().All() {
			if r.Elastic {
				continue
			}
			if _, after, err := sys.GuaranteedRRUs(r.ID); err == nil {
				rec.ShortRRU += math.Max(0, r.RRUs-after)
			}
		}
	})
}

// processCPU is the CPU time the process has used, user and system, in
// seconds, over all its threads. The bounded timings are CPU times: on a
// shared virtual machine the wall time of the same solve moves with the
// time the host takes the CPUs away (steal), which CPU time leaves out.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// evictionsOf reads the allocator's eviction counter.
func evictionsOf(a *allocator.Allocator) int {
	_, ev, _ := a.Stats()
	return ev
}
