// Package localsearch implements a local-search backend for the RAS
// placement objectives. The paper (§6) describes ReBalancer, Facebook's
// common optimization library, which "can choose different backend solvers
// to solve an optimization problem": a MIP solver for RAS (quality,
// minutes-scale) and a local-search solver for Shard Manager (near-realtime,
// seconds-scale). This package is that second backend. It climbs over the
// solver's own spec list (guaranteed reservations plus the per-type
// shared-buffer rows) and scores every move with solver.Scorer, the
// phase-1 objective functional the MIP optimizes, so the two backends are
// judged on one yardstick (see the MIPvsLocalSearch ablation benchmarks).
//
// The algorithm is steepest-of-sample hill climbing over single-server
// moves: acquire from the free pool, release surplus, or reassign between
// specs. All objective terms are maintained incrementally, so a step
// costs O(candidates) regardless of region size.
package localsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"ras/internal/clock"
	"ras/internal/reservation"
	"ras/internal/solver"
	"ras/internal/topology"
)

// Config tunes the search. Zero values select defaults. The objective
// weights are not here: they come from the solver.Config passed to Solve,
// the same one the MIP backend solves with.
type Config struct {
	// TimeLimit bounds the search. Zero means 2s.
	TimeLimit time.Duration
	// MaxSteps bounds accepted moves. Zero means 100000.
	MaxSteps int
	// Candidates is the sample size per step. Zero means 48.
	Candidates int
	// Seed drives candidate sampling. The search is deterministic given a
	// seed, a start count, and an input.
	Seed int64
	// Starts is the number of independent hill-climbing starts racing in
	// parallel; the best final assignment wins. Zero or one runs the exact
	// single-start search. Every start derives its RNG seed
	// deterministically from Seed and its start index, so results are
	// reproducible regardless of scheduling or GOMAXPROCS, and start 0
	// always equals the single-start search with the same Seed.
	Starts int
}

func (c Config) withDefaults() Config {
	if c.TimeLimit == 0 {
		c.TimeLimit = 2 * time.Second
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 100000
	}
	if c.Candidates == 0 {
		c.Candidates = 48
	}
	return c
}

// WarmState is the cross-round reuse seam of the local-search backend: the
// previous round's final assignment. SolveWarm seeds every climb's starting
// point from it instead of the broker's current bindings, so consecutive
// rounds of the continuous-optimization loop resume where the last one left
// off. State that no longer fits — a different server count, an assignment
// to a reservation that disappeared, a server that became ineligible — is
// ignored binding by binding, falling back to the broker's view.
type WarmState struct {
	Targets []reservation.ID
}

// Result is the outcome of a search.
type Result struct {
	// Targets maps every server to its assigned reservation.
	Targets []reservation.ID
	// Objective is solver.Evaluate of Targets: the phase-1 objective every
	// backend reports. The climb's shaping term never enters it.
	Objective float64
	// Steps is the number of accepted moves.
	Steps int
	// Evaluated is the number of candidate moves scored.
	Evaluated int
	// Elapsed is the search wall-clock time.
	Elapsed time.Duration
	Moves   solver.MoveStats
	// Cancelled reports that the solve context was cancelled before the
	// search converged or exhausted its budget; Targets hold the best
	// assignment reached (every accepted move only ever improved it).
	Cancelled bool
	// Starts is the number of independent climbs that ran; BestStart is
	// the index of the one whose assignment won (ties go to the lowest
	// index, so the winner is deterministic). Steps and Evaluated are the
	// winning climb's own counts.
	Starts    int
	BestStart int
}

// state is one climb's assignment, scored incrementally by the solver's
// objective functional.
type state struct {
	sc     *solver.Scorer
	region *topology.Region
}

// Solve runs the local search and returns the assignment.
//
// ctx bounds the search together with Config.TimeLimit: the context is
// polled between steps (and during seeding), so cancellation aborts within
// one candidate-sampling round and returns the best assignment found, with
// Result.Cancelled set. A cancelled search is not an error.
//
// weights prices the objective exactly as the MIP backend does, shared
// buffer included (see solver.Config).
func Solve(ctx context.Context, in solver.Input, weights solver.Config, cfg Config) (*Result, error) {
	return SolveWarm(ctx, in, weights, cfg, nil)
}

// SolveWarm is Solve with a cross-round warm start: every climb begins from
// the previous round's assignment (see WarmState) instead of the broker's
// current bindings. nil warm — or warm state for a different server count —
// reproduces Solve exactly.
func SolveWarm(ctx context.Context, in solver.Input, weights solver.Config, cfg Config, warm *WarmState) (*Result, error) {
	if ctx == nil {
		ctx = context.Background() //raslint:allow ctxflow nil ctx defaults to Background at the public API boundary
	}
	if in.Region == nil {
		return nil, fmt.Errorf("localsearch: nil region")
	}
	if len(in.States) != len(in.Region.Servers) {
		return nil, fmt.Errorf("localsearch: %d states for %d servers", len(in.States), len(in.Region.Servers))
	}
	if warm != nil && len(warm.Targets) != len(in.Region.Servers) {
		warm = nil // shape drift: fall back to a cold start
	}
	cfg = cfg.withDefaults()
	start := clock.Now()

	if cfg.Starts <= 1 {
		res := climb(ctx, in, weights, cfg, cfg.Seed, warm)
		res.Starts = 1
		res.Elapsed = clock.Since(start)
		return res, nil
	}

	// Multi-start: independent climbs race on goroutines; each start's RNG
	// seed is a pure function of (Seed, index), so any scheduling order
	// produces the same per-start results and therefore — with the
	// lowest-index tie break below — the same winner.
	results := make([]*Result, cfg.Starts)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Start i owns results[i] exclusively; wg.Wait() orders the
			// writes before the winner scan reads them.
			//raslint:allow sharedwrite disjoint per-start slots; wg.Wait orders writes before reads
			results[i] = climb(ctx, in, weights, cfg, startSeed(cfg.Seed, i), warm)
		}(i)
	}
	wg.Wait()
	best := 0
	for i := 1; i < len(results); i++ {
		if results[i].Objective < results[best].Objective {
			best = i
		}
	}
	res := results[best]
	res.Starts = cfg.Starts
	res.BestStart = best
	res.Elapsed = clock.Since(start)
	res.Cancelled = ctx.Err() == context.Canceled
	return res, nil
}

// startSeed derives the deterministic RNG seed of start i: a golden-ratio
// stride keeps consecutive starts' rand streams well separated, and start 0
// is the base seed itself so Starts=1 reproduces the single-start search.
func startSeed(base int64, i int) int64 {
	const stride = int64(-0x61C8864680B583EB) // 0x9E3779B97F4A7C15 as int64
	return base + int64(i)*stride
}

// climb runs one full hill-climbing search (seeding, steepest-of-sample
// loop, result assembly) with the given RNG seed. Each climb owns all of
// its state, so any number may run concurrently on one input.
func climb(ctx context.Context, in solver.Input, weights solver.Config, cfg Config, seed int64, warm *WarmState) *Result {
	start := clock.Now()
	s := newState(in, weights)
	s.seedWarm(warm)
	rng := rand.New(rand.NewSource(seed))
	res := &Result{}

	// Greedy waterfill seeding: single-server hill climbing cannot escape
	// the plateau where a short reservation's only eligible free servers
	// sit in its own most-loaded MSB, so fill shortfalls upfront by always
	// acquiring into the least-loaded eligible MSB.
	res.Steps += s.waterfillSeed(ctx)

	deadline := start.Add(cfg.TimeLimit)
	nServers, nSpecs := len(in.Region.Servers), s.sc.Specs()
	for res.Steps < cfg.MaxSteps {
		if ctx.Err() != nil {
			break
		}
		if clock.Now().After(deadline) {
			break
		}
		// Sample candidate moves, keep the steepest improvement.
		bestDelta := -1e-9
		bestServer, bestTo := -1, -1
		for c := 0; c < cfg.Candidates; c++ {
			sid := topology.ServerID(rng.Intn(nServers))
			to := rng.Intn(nSpecs+1) - 1 // -1 releases to the free pool
			if !s.movable(sid, to) {
				continue
			}
			res.Evaluated++
			if d := s.delta(sid, to); d < bestDelta {
				bestDelta, bestServer, bestTo = d, int(sid), to
			}
		}
		if bestServer < 0 {
			// Sample found nothing; occasionally that is just sampling
			// noise, so only give up after several consecutive dry rounds.
			if res.Evaluated > 0 && res.Steps == 0 && res.Evaluated > 20*cfg.Candidates {
				break
			}
			dry := true
			for c := 0; c < 4*cfg.Candidates && dry; c++ {
				sid := topology.ServerID(rng.Intn(nServers))
				for to := 0; to < nSpecs; to++ {
					if s.movable(sid, to) && s.delta(sid, to) < -1e-9 {
						dry = false
						break
					}
				}
			}
			if dry {
				break
			}
			continue
		}
		s.sc.Move(topology.ServerID(bestServer), bestTo)
		res.Steps++
	}

	res.Targets = s.sc.Targets()
	// Single-server moves cannot route capacity across eligibility classes:
	// a short row whose eligible servers all sit with other reservations
	// needs a steal plus a backfill, and the first move of that chain alone
	// is uphill. The pop backend's repair pass makes exactly those compound
	// moves against the same objective, so a climb that ends short hands
	// its assignment over to it.
	if ctx.Err() == nil && s.short() {
		solver.RepairTargets(in, weights, res.Targets)
	}
	res.Moves = solver.CountMoves(in, res.Targets)
	res.Objective = solver.Evaluate(in, weights, res.Targets).Objective
	res.Elapsed = clock.Since(start)
	// Explicit cancellation only: a ctx deadline expiring is a time budget
	// running out, indistinguishable from Config.TimeLimit (Feasible).
	res.Cancelled = ctx.Err() == context.Canceled
	return res
}

// newState starts a climb from the broker's current bindings. Bindings the
// objective cannot count (failed servers, ineligible or vanished
// reservations) start in the free pool.
func newState(in solver.Input, weights solver.Config) *state {
	current := make([]reservation.ID, len(in.States))
	for i := range in.States {
		current[i] = in.States[i].Current
	}
	s := &state{sc: solver.NewScorer(in, weights, current), region: in.Region}
	for i := range current {
		if id := topology.ServerID(i); s.sc.Spec(id) < 0 {
			s.sc.Move(id, -1)
		}
	}
	return s
}

// seedWarm rebinds servers to the previous round's assignment (shape already
// validated by SolveWarm). Each binding is applied only where it is still
// legal — server usable, reservation still present, server still eligible —
// so arbitrary drift between rounds degrades gracefully toward the broker
// seeding of newState instead of poisoning the start point.
func (s *state) seedWarm(warm *WarmState) {
	if warm == nil {
		return
	}
	for i, want := range warm.Targets {
		id := topology.ServerID(i)
		to := s.sc.SpecFor(want, id)
		if to != s.sc.Spec(id) && (to >= 0 || want == reservation.Unassigned) {
			s.sc.Move(id, to)
		}
	}
}

// waterfillSeed acquires free servers for every spec whose capacity row is
// short, always into the least-loaded MSB with eligible free servers, until
// the shortfall closes or the pool runs dry. Cancelling ctx stops seeding
// between acquisitions.
func (s *state) waterfillSeed(ctx context.Context) (acquired int) {
	freeByMSB := make([][]topology.ServerID, s.region.NumMSBs)
	for i := range s.region.Servers {
		if id := topology.ServerID(i); s.sc.Spec(id) < 0 {
			msb := s.region.Servers[i].MSB
			freeByMSB[msb] = append(freeByMSB[msb], id)
		}
	}
	for si := 0; si < s.sc.Specs(); si++ {
		for guard := 0; guard < len(s.region.Servers); guard++ {
			if acquired&63 == 0 && ctx.Err() != nil {
				return acquired
			}
			if s.sc.Short(si) <= 0 {
				break
			}
			// Least-loaded MSB with an eligible free server.
			bestMSB, bestLoad := -1, 0.0
			var bestSrv topology.ServerID
			for msb := range freeByMSB {
				for _, sid := range freeByMSB[msb] {
					if s.sc.Value(si, sid) <= 0 {
						continue // ineligible or unusable; keep scanning this MSB
					}
					if load := s.sc.Load(si, msb); bestMSB == -1 || load < bestLoad {
						bestMSB, bestLoad, bestSrv = msb, load, sid
					}
					break // first eligible server of the MSB is enough
				}
			}
			if bestMSB == -1 {
				break // pool dry for this spec
			}
			s.sc.Move(bestSrv, si)
			acquired++
			// Drop the used server from the free index.
			lst := freeByMSB[bestMSB]
			for k, sid := range lst {
				if sid == bestSrv {
					freeByMSB[bestMSB] = append(lst[:k], lst[k+1:]...)
					break
				}
			}
		}
	}
	return acquired
}

// short reports whether some capacity row is still short.
func (s *state) short() bool {
	for si := 0; si < s.sc.Specs(); si++ {
		if s.sc.Short(si) > 1e-9 {
			return true
		}
	}
	return false
}

// movable reports whether rebinding sid to spec to (-1: the free pool) is a
// real move the spec allows.
func (s *state) movable(sid topology.ServerID, to int) bool {
	return to != s.sc.Spec(sid) && (to < 0 || s.sc.Value(to, sid) > 0)
}

// delta scores rebinding sid to spec to: the exact objective change plus
// the change in the shaping term.
func (s *state) delta(sid topology.ServerID, to int) float64 {
	d := s.sc.Delta(sid, to)
	if from := s.sc.Spec(sid); from >= 0 {
		d += s.shaping(from, -s.sc.Value(from, sid))
	}
	if to >= 0 {
		d += s.shaping(to, s.sc.Value(to, sid))
	}
	return d
}

// shaping is the change in a search-guidance term, never reported, when
// spec si's total moves by dv. The capacity row is blind to a
// reservation's very first servers (total and its largest MSB rise
// together), which strands hill climbing on a plateau. Pricing the raw
// total shortfall as well keeps a downhill gradient there without changing
// the zero set.
func (s *state) shaping(si int, dv float64) float64 {
	need, total := s.sc.Need(si), s.sc.Total(si)
	return s.sc.SlackCost(math.Max(0, need-(total+dv)) - math.Max(0, need-total))
}
