package solver

import (
	"math"

	"ras/internal/broker"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// Eval is the region-wide phase-1 objective of an assignment, broken down by
// the MIP's objective terms (§3.5.3 expressions 1, 3, 4, 6, 7 at MSB
// granularity — rack goals are a phase-2 refinement and not part of the
// phase-1 objective this mirrors).
type Eval struct {
	// Objective is the total: Stability + Spread + Buffer + CapSlack +
	// AffSlack + Wear. At any integral assignment it equals the phase-1
	// model's objective over the same input.
	Objective float64
	// Stability is Σ M_s over servers leaving their current reservation
	// (expression 1).
	Stability float64
	// Spread is β·Σ max(0, Σ_MSB − αF·C_r) (expression 3).
	Spread float64
	// Buffer is τ·Σ_r max_MSB Σ (expression 4).
	Buffer float64
	// CapSlack prices unmet capacity: SoftPenalty per RRU short of the
	// embedded-buffer capacity row (expression 6).
	CapSlack float64
	// AffSlack prices DC-affinity violations (expression 7).
	AffSlack float64
	// Wear is the IO-aware placement cost (§5.2); zero unless
	// Config.WearPenalty is set.
	Wear float64
	// Unserviceable is demand no usable server in the region can serve at
	// all. Like a direct solve's PhaseStats.SoftSlack bookkeeping it is NOT
	// part of Objective: the MIP drops such specs before pricing them.
	Unserviceable float64
}

// The phase-1 objective terms below are priced here once for every
// consumer outside the MIP builder: Evaluate and the localsearch backend
// (through Scorer) and RepairTargets all score assignments with them.

// soft prices RRUs of softened-constraint slack (expressions 6 and 7).
func (c *Config) soft(slack float64) float64 { return c.SoftPenalty * slack }

// moveCost is M_s, the stability price of moving a server off its current
// reservation (expression 1): in-use servers preempt running containers.
func (c *Config) moveCost(st *broker.ServerState) float64 {
	if st.Containers > 0 && st.LoanedTo == reservation.Unassigned {
		return c.MoveCostInUse
	}
	return c.MoveCostIdle
}

// wearCost is the IO-aware placement cost (§5.2) of binding server id to
// spec s: WearPenalty per wear bucket, charged only for flash servers bound
// to a guaranteed reservation.
func (c *Config) wearCost(in Input, id topology.ServerID, s *resSpec) float64 {
	if c.WearPenalty <= 0 || s.isBuffer || in.Region.Catalog.Type(in.Region.Servers[id].Type).FlashTB <= 0 {
		return 0
	}
	return c.WearPenalty * float64(wearBucket(in.States[id].FlashWear))
}

// alphaF and alphaK are spec s's MSB and rack spread thresholds αF and αK:
// its own policy, else the region default.
func (c *Config) alphaF(s *resSpec) float64 { return orDefault(s.res.Policy.SpreadMSB, c.AlphaMSB) }
func (c *Config) alphaK(s *resSpec) float64 { return orDefault(s.res.Policy.SpreadRack, c.AlphaRack) }

// affRange is the band [lo, hi] expression 7 allows spec s in DC dc:
// (A_{r,dc} ∓ θ)·C_r.
func (c *Config) affRange(s *resSpec, dc int) (lo, hi float64) {
	theta := orDefault(s.res.Policy.AffinityTheta, c.AffinityTheta)
	a, cr := s.res.Policy.DCAffinity[dc], s.res.RRUs
	return a*cr - theta*cr, a*cr + theta*cr
}

// affViolation is how far sum lies outside [lo, hi].
func affViolation(lo, hi, sum float64) float64 {
	return math.Max(math.Max(0, sum-hi), math.Max(0, lo-sum))
}

// orDefault is v, or def when v is the zero "unset" sentinel.
func orDefault(v, def float64) float64 {
	if exactZero(v) {
		return def
	}
	return v
}

// specTerms prices spec s's region-wide rows at the given per-MSB loads and
// total: β-spread (3) and the τ-envelope (4), plus the RRUs short of its
// capacity row (6), which the caller prices with soft. Shared-buffer rows
// have no spread goal and no envelope: their capacity row is total ≥ C_r.
func (c *Config) specTerms(s *resSpec, sumMSB []float64, total float64) (spread, buffer, short float64) {
	cr := s.res.RRUs
	if s.isBuffer {
		return 0, 0, math.Max(0, cr-total)
	}
	alphaF := c.alphaF(s)
	env := 0.0
	for _, v := range sumMSB {
		if v > env {
			env = v
		}
		spread += c.Beta * math.Max(0, v-alphaF*cr)
	}
	return spread, c.Tau * env, math.Max(0, cr-(total-env))
}

// affSlack prices spec s's DC-affinity violations (7) at the given per-DC
// loads, in the DCs marked eligible (those with usable capacity it values).
func (c *Config) affSlack(s *resSpec, sumDC []float64, eligDC []bool) float64 {
	if len(s.res.Policy.DCAffinity) == 0 {
		return 0
	}
	cost := 0.0
	for dc, sum := range sumDC {
		if eligDC[dc] {
			lo, hi := c.affRange(s, dc)
			cost += c.soft(affViolation(lo, hi, sum))
		}
	}
	return cost
}

// specValue is V_{s,r} for a server of the given hardware type and DC under
// spec s, honouring the SingleDC policy (the same eligibility the MIP bakes
// into vval).
func specValue(in Input, s *resSpec, typeIdx, dc int) float64 {
	if s.res.Policy.SingleDC >= 0 && dc != s.res.Policy.SingleDC {
		return 0
	}
	return rruValue(in.Region.Catalog, typeIdx, s)
}

// Scorer holds one assignment's per-spec loads and prices them with the
// phase-1 objective functional, the yardstick every backend is judged by.
// Evaluate scores a finished assignment with it, and the localsearch
// backend climbs on its exact incremental Delta.
//
// The specs are the solver's: guaranteed reservations plus the per-type
// shared-buffer rows. Every rule replicates the MIP's construction:
//   - only usable servers count (the availability constraint);
//   - a server counts toward the first spec sharing its target ID that
//     values it (buffer rows share reservation.SharedBuffer);
//   - specs no usable server can serve are reported Unserviceable
//     instead of priced;
//   - affinity is priced only in DCs with eligible usable capacity.
//
// A Scorer is not safe for concurrent use: Delta probes by mutating loads
// in place and restoring them.
type Scorer struct {
	in    Input
	cfg   Config
	specs []resSpec
	byID  map[reservation.ID][]int
	// value[si][class] is V_{s,r} of a server of that (type, DC) class.
	value [][]float64
	// priced marks specs with demand some usable server can serve; eligDC
	// marks, per spec, the DCs holding such a server.
	priced []bool
	eligDC [][]bool

	target []reservation.ID
	spec   []int // spec each server counts toward; -1 for none
	home   []int // spec each server currently belongs to; -1 for none
	sumMSB [][]float64
	sumDC  [][]float64
	total  []float64
	cost   []float64 // each spec's row cost at the current loads
}

// NewScorer scores targets (one per server) under cfg's weights.
func NewScorer(in Input, cfg Config, targets []reservation.ID) *Scorer {
	cfg = cfg.withDefaults(in.Region)
	specs := buildSpecs(in, cfg)
	nS, nDC := len(specs), in.Region.NumDCs
	nCls := in.Region.Catalog.Len() * nDC
	s := &Scorer{
		in: in, cfg: cfg, specs: specs,
		byID:   make(map[reservation.ID][]int, nS),
		value:  make([][]float64, nS),
		priced: make([]bool, nS),
		eligDC: make([][]bool, nS),
		target: append([]reservation.ID(nil), targets...),
		spec:   make([]int, len(targets)),
		home:   make([]int, len(targets)),
		sumMSB: make([][]float64, nS),
		sumDC:  make([][]float64, nS),
		total:  make([]float64, nS),
		cost:   make([]float64, nS),
	}
	// Usable servers per (type, DC) decide which specs and DCs are live.
	usable := make([]bool, nCls)
	for i := range in.Region.Servers {
		if !unusable(&in.States[i]) {
			usable[s.class(topology.ServerID(i))] = true
		}
	}
	for si := range specs {
		sp := &specs[si]
		s.byID[sp.outID] = append(s.byID[sp.outID], si)
		s.value[si] = make([]float64, nCls)
		s.eligDC[si] = make([]bool, nDC)
		serviceable := false
		for k := range s.value[si] {
			v := specValue(in, sp, k/nDC, k%nDC)
			s.value[si][k] = v
			if v > 0 && usable[k] {
				s.eligDC[si][k%nDC] = true
				serviceable = true
			}
		}
		s.priced[si] = sp.res.RRUs > 0 && serviceable
		s.sumMSB[si] = make([]float64, in.Region.NumMSBs)
		s.sumDC[si] = make([]float64, nDC)
	}
	for i := range targets {
		id := topology.ServerID(i)
		s.home[i] = s.SpecFor(in.States[i].Current, id)
		s.spec[i] = s.SpecFor(targets[i], id)
		if s.spec[i] >= 0 {
			s.load(s.spec[i], id, 1)
		}
	}
	for si := range specs {
		s.cost[si] = s.specCost(si)
	}
	return s
}

// Evaluate scores a full-region assignment with the phase-1 objective
// functional. Every backend reports it as Result.Objective, so one
// monolithic solve, k recombined sub-solutions and a local-search climb
// are compared on identical terms. Summing sub-problem objectives would
// overcount the per-reservation τ·max buffer terms; Evaluate recomputes
// everything from the merged Targets.
func Evaluate(in Input, cfg Config, targets []reservation.ID) Eval {
	return NewScorer(in, cfg, targets).Eval()
}

// Eval breaks the current assignment's objective down by term.
func (s *Scorer) Eval() Eval {
	var ev Eval
	for i := range s.target {
		id := topology.ServerID(i)
		ev.Stability += s.stability(id, s.target[i])
		ev.Wear += s.wear(s.spec[i], id)
	}
	for si := range s.specs {
		sp := &s.specs[si]
		if !s.priced[si] {
			if sp.res.RRUs > 0 {
				ev.Unserviceable += sp.res.RRUs
			}
			continue
		}
		spread, buffer, short := s.cfg.specTerms(sp, s.sumMSB[si], s.total[si])
		ev.Spread += spread
		ev.Buffer += buffer
		ev.CapSlack += s.cfg.soft(short)
		ev.AffSlack += s.cfg.affSlack(sp, s.sumDC[si], s.eligDC[si])
	}
	ev.Objective = ev.Stability + ev.Spread + ev.Buffer + ev.CapSlack + ev.AffSlack + ev.Wear
	return ev
}

// Specs reports the number of specs; spec indices run over [0, Specs()).
func (s *Scorer) Specs() int { return len(s.specs) }

// Spec is the spec server id counts toward, or -1.
func (s *Scorer) Spec(id topology.ServerID) int { return s.spec[id] }

// SpecFor is the spec server id would count toward if bound to r, or -1
// when it would count toward none (unusable server, ineligible binding,
// unknown reservation, free pool).
func (s *Scorer) SpecFor(r reservation.ID, id topology.ServerID) int {
	for _, si := range s.byID[r] {
		if s.Value(si, id) > 0 {
			return si
		}
	}
	return -1
}

// Value is V_{s,r} of server id under spec si; zero when the server is
// unusable or ineligible.
func (s *Scorer) Value(si int, id topology.ServerID) float64 {
	if unusable(&s.in.States[id]) {
		return 0
	}
	return s.value[si][s.class(id)]
}

// class indexes server id's (hardware type, DC) pair in the value tables.
func (s *Scorer) class(id topology.ServerID) int {
	srv := &s.in.Region.Servers[id]
	return srv.Type*s.in.Region.NumDCs + srv.DC
}

// Load is spec si's RRUs in one MSB.
func (s *Scorer) Load(si, msb int) float64 { return s.sumMSB[si][msb] }

// Total is spec si's RRUs region-wide.
func (s *Scorer) Total(si int) float64 { return s.total[si] }

// Need is spec si's requested RRUs C_r, or zero when the spec is not priced
// (no demand, or no usable server can serve it).
func (s *Scorer) Need(si int) float64 {
	if !s.priced[si] {
		return 0
	}
	return s.specs[si].res.RRUs
}

// Short is the RRUs spec si's capacity row (6) is short by: C_r minus the
// capacity that survives losing the largest MSB (a buffer row: minus its
// total).
func (s *Scorer) Short(si int) float64 {
	if !s.priced[si] {
		return 0
	}
	_, _, short := s.cfg.specTerms(&s.specs[si], s.sumMSB[si], s.total[si])
	return short
}

// SlackCost prices RRUs of slack as the objective prices softened rows.
func (s *Scorer) SlackCost(rru float64) float64 { return s.cfg.soft(rru) }

// Targets returns a copy of the current assignment.
func (s *Scorer) Targets() []reservation.ID { return append([]reservation.ID(nil), s.target...) }

// Delta is the exact objective change of rebinding server id to spec to
// (-1: the free pool). The assignment is left unchanged.
func (s *Scorer) Delta(id topology.ServerID, to int) float64 {
	from := s.spec[id]
	toID := s.outID(to)
	if from == to && toID == s.target[id] {
		return 0
	}
	d := s.stability(id, toID) - s.stability(id, s.target[id]) + s.wear(to, id) - s.wear(from, id)
	if from >= 0 {
		d += s.shift(from, id, -1)
	}
	if to >= 0 {
		d += s.shift(to, id, 1)
	}
	return d
}

// Move rebinds server id to spec to (-1: the free pool). A spec must value
// the server (Value > 0).
func (s *Scorer) Move(id topology.ServerID, to int) {
	if from := s.spec[id]; from >= 0 {
		s.load(from, id, -1)
		s.cost[from] = s.specCost(from)
	}
	if to >= 0 {
		s.load(to, id, 1)
		s.cost[to] = s.specCost(to)
	}
	s.spec[id] = to
	s.target[id] = s.outID(to)
}

func (s *Scorer) outID(si int) reservation.ID {
	if si < 0 {
		return reservation.Unassigned
	}
	return s.specs[si].outID
}

// stability is the expression-1 cost of server id at the given target: M_s
// when it leaves the spec it currently belongs to.
func (s *Scorer) stability(id topology.ServerID, target reservation.ID) float64 {
	if h := s.home[id]; h >= 0 && target != s.specs[h].outID {
		return s.cfg.moveCost(&s.in.States[id])
	}
	return 0
}

// wear is the placement cost of server id counted toward spec si (-1: none).
func (s *Scorer) wear(si int, id topology.ServerID) float64 {
	if si < 0 {
		return 0
	}
	return s.cfg.wearCost(s.in, id, &s.specs[si])
}

// specCost is spec si's row cost (spread, envelope, capacity and affinity
// slack) at the current loads.
func (s *Scorer) specCost(si int) float64 {
	if !s.priced[si] {
		return 0
	}
	sp := &s.specs[si]
	spread, buffer, short := s.cfg.specTerms(sp, s.sumMSB[si], s.total[si])
	return spread + buffer + s.cfg.soft(short) + s.cfg.affSlack(sp, s.sumDC[si], s.eligDC[si])
}

// load adds (sign 1) or removes (sign −1) server id's value to spec si.
func (s *Scorer) load(si int, id topology.ServerID, sign float64) {
	srv := &s.in.Region.Servers[id]
	v := sign * s.Value(si, id)
	s.sumMSB[si][srv.MSB] += v
	s.sumDC[si][srv.DC] += v
	s.total[si] += v
}

// shift is spec si's cost change if server id joined (sign 1) or left (sign
// −1) it; the loads are restored exactly afterwards.
func (s *Scorer) shift(si int, id topology.ServerID, sign float64) float64 {
	if !s.priced[si] {
		return 0
	}
	srv := &s.in.Region.Servers[id]
	msb, dc, total := s.sumMSB[si][srv.MSB], s.sumDC[si][srv.DC], s.total[si]
	s.load(si, id, sign)
	after := s.specCost(si)
	s.sumMSB[si][srv.MSB], s.sumDC[si][srv.DC], s.total[si] = msb, dc, total
	return after - s.cost[si]
}

// usableFreeServers lists the usable servers an assignment leaves in the
// free pool, ascending — the acquisition pool for the repair pass.
func usableFreeServers(in Input, targets []reservation.ID) []topology.ServerID {
	var out []topology.ServerID
	for i := range in.Region.Servers {
		if targets[i] == reservation.Unassigned && !unusable(&in.States[i]) {
			out = append(out, topology.ServerID(i))
		}
	}
	return out
}
