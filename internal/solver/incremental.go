// Incremental model build: the solver caches each phase's fully built MIP
// together with the bookkeeping needed to patch it in place when the next
// round's input differs only in ways that keep the model's structure — dead
// or revived servers moving between existing symmetry groups (bound and RHS
// flips) and resized demands C_r (RHS updates). Any structural drift — a
// reservation created or deleted, a symmetry group appearing or emptying, a
// move hinge appearing or vanishing — falls back to a cold rebuild, so a
// patched model is bit-for-bit identical to what the cold path would have
// built for the same input (the property tests compare mip.Fingerprint).
package solver

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"ras/internal/broker"
	"ras/internal/clock"
	"ras/internal/mip"
	"ras/internal/reservation"
	"ras/internal/topology"
)

// Delta describes what changed in a round's inputs relative to the snapshot
// an earlier round solved, letting the solver patch its cached phase models
// instead of rebuilding them. Callers assemble it from the broker's
// ChangedSince journal and the reservation store's ChangesSince log.
type Delta struct {
	// Since is the broker snapshot version the cached round solved
	// (Input.StatesVersion of that round). The patch path engages only when
	// it matches the cache.
	Since uint64
	// Servers lists the servers whose broker state changed since Since,
	// ascending. The patch path re-derives the exact change set by comparing
	// snapshots, so a superset is fine; the field exists for observability
	// and tests.
	Servers []topology.ServerID
	// Reservations are the capacity requests logged since the cached round.
	// Creates and deletes change the spec list itself and force a rebuild;
	// resizes arrive as RHS updates.
	Reservations []reservation.Request
}

// structural reports whether the delta is known to break model structure
// without attempting a patch: reservation creates and deletes change the
// spec list itself.
func (d *Delta) structural() bool {
	for i := range d.Reservations {
		if d.Reservations[i].Kind != reservation.Resize {
			return true
		}
	}
	return false
}

// ModelCache carries the per-phase built models across rounds inside
// WarmState. It is mutated in place by each solve, so a WarmState must feed
// at most one solve at a time (the same single-flight rule the rest of the
// warm-start state already follows).
type ModelCache struct {
	phase1 *builtPhase
	phase2 *builtPhase
}

// groupKey identifies one symmetry equivalence class (see groupServers).
type groupKey struct {
	typeIdx int
	scope   int // MSB or rack index
	cur     reservation.ID
	inUse   bool
	wear    int               // wear bucket; 0 unless wear-aware placement is on
	server  topology.ServerID // set only when symmetry is disabled
}

// serverKey computes the symmetry-class key of one server, mirroring the
// grouping pass of groupServers exactly.
func serverKey(in Input, id topology.ServerID, rackLevel, noSymmetry, wearAware bool) groupKey {
	srv := &in.Region.Servers[id]
	st := &in.States[id]
	inUse := st.Containers > 0 && st.LoanedTo == reservation.Unassigned
	scope := srv.MSB
	if rackLevel {
		scope = srv.Rack
	}
	k := groupKey{typeIdx: srv.Type, scope: scope, cur: st.Current, inUse: inUse, server: -1}
	if noSymmetry {
		k.server = id
	}
	if wearAware && in.Region.Catalog.Type(srv.Type).FlashTB > 0 {
		k.wear = wearBucket(st.FlashWear)
	}
	return k
}

// specRows records where one spec's rows and auxiliary variables landed in
// the model, so a patch can update exactly them. Absent entries are -1.
type specRows struct {
	// active means the spec got constraint rows (cr > 0 and serviceable).
	active bool
	// unserviceable means cr > 0 but no usable server can serve the spec.
	unserviceable bool
	unservMsg     string

	env       mip.Var // envelope z (expression 4/6); -1 for buffer specs
	capRow    int
	capSlack  mip.Var
	spreadRow []int // by position in msbs; -1 where the MSB has no terms
	spreadVar []mip.Var
	rackRow   []int // by position in racks (rack level only)
	rackVar   []mip.Var
	affRow    [][2]int  // by DC: {aff-hi row, aff-lo row}; {-1,-1} absent
	affSlack  []mip.Var // by DC; -1 absent
}

// builtPhase is one phase's cached model: the mip.Model plus every piece of
// bookkeeping needed to (a) run the MIP step, (b) patch the model in place
// for a compatible next-round input, and (c) prove the patch kept it
// identical to a cold rebuild. It is single-flight state: one solve at a
// time may read or mutate it.
type builtPhase struct {
	m   *mip.Model
	rev int // model revision at build; structural growth disables patching

	region    *topology.Region
	rackLevel bool
	cfg       Config
	nDCs      int

	// statesVersion is the broker snapshot version this model reflects.
	statesVersion uint64

	specs    []resSpec // copy; RRUs tracked through patches
	specByID map[reservation.ID][]int

	groups   []*group
	groupIdx map[groupKey]int

	vval      [][]float64 // V_{g,s}
	initCount [][]float64 // X_{g,s}, kept current through patches
	initX     []float64   // warm-start point, parallel to model variables

	nVar      [][]mip.Var
	assignRow []int
	moveVar   [][]mip.Var
	moveRow   [][]int

	sp      []specRows
	msbs    []int
	racks   []int
	msbIdx  map[int]int
	rackIdx map[int]int

	capSlackVars []mip.Var
	affSlackVars []mip.Var
	assignVars   int

	// Per-server bookkeeping (indexed by ServerID over the whole region).
	states      []broker.ServerState
	curRef      []reservation.ID // Current in phase 1, targets at rack level
	inPool      []bool
	serverGroup []int32 // group index; -1 outside the pool
	countSpec   []int32 // spec index the server's initCount charge went to; -1 none
	subset      []topology.ServerID
}

// parallelBuildMin is the group×spec matrix size below which the cold build
// stays serial: goroutine fan-out costs more than it saves on small models.
const parallelBuildMin = 4096

// buildWorkers resolves the cold build's parallelism from the config.
func buildWorkers(cfg Config, cells int) int {
	if cells < parallelBuildMin {
		return 1
	}
	w := cfg.Workers
	if w < 0 {
		w = runtime.NumCPU()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor splits [0,n) into one contiguous shard per worker and runs f
// on each concurrently. f must only touch its own shard's slots.
func parallelFor(workers, n int, f func(lo, hi int)) {
	if workers <= 1 || n < 2 {
		f(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// buildPhase runs the cold path: grouping, initial state, and the full MIP
// build, returning the cached form. Group-sharded passes (eligibility
// values, variable names, initial counts) run on cfg.Workers goroutines;
// the shards are disjoint, so the result is identical at every worker count.
func buildPhase(in Input, cfg Config, specs []resSpec, pool []topology.ServerID,
	targets []reservation.ID, rackLevel bool, stats *PhaseStats) *builtPhase {

	// ---------------- RAS build: grouping & constants. -------------------
	t0 := clock.Now()
	groups, groupIdx := groupServers(in, pool, rackLevel, cfg.DisableSymmetry, cfg.WearPenalty > 0)
	cat := in.Region.Catalog
	nG, nS := len(groups), len(specs)
	workers := buildWorkers(cfg, nG*nS)

	// Per-(group, spec) RRU values, eligibility, and variable names.
	vval := make([][]float64, nG)
	names := make([][]string, nG)
	parallelFor(workers, nG, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			g := groups[gi]
			row := make([]float64, nS)
			nrow := make([]string, nS)
			for si := range specs {
				s := &specs[si]
				if s.res.Policy.SingleDC >= 0 && g.dc != s.res.Policy.SingleDC {
					continue
				}
				v := rruValue(cat, g.typeIdx, s)
				row[si] = v
				if v > 0 {
					nrow[si] = fmt.Sprintf("n[g%d,%s]", gi, s.res.Name)
				}
			}
			vval[gi] = row
			names[gi] = nrow
		}
	})
	stats.RASBuild = clock.Since(t0)

	// ---------------- Initial state. -------------------------------------
	t0 = clock.Now()
	n := len(in.States)
	// Initial count X[g][s]: servers of g currently in spec s. The "current"
	// reference is the broker's Current in phase 1 and the phase-1 target in
	// phase 2, so phase 2 warm-starts from the phase-1 solution.
	specByID := make(map[reservation.ID][]int, nS)
	for si := range specs {
		specByID[specs[si].outID] = append(specByID[specs[si].outID], si)
	}
	curRef := make([]reservation.ID, n)
	for i := range curRef {
		if rackLevel {
			curRef[i] = targets[i]
		} else {
			curRef[i] = in.States[i].Current
		}
	}
	initCount := make([][]float64, nG)
	serverGroup := make([]int32, n)
	countSpec := make([]int32, n)
	for i := range serverGroup {
		serverGroup[i] = -1
		countSpec[i] = -1
	}
	parallelFor(workers, nG, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			g := groups[gi]
			row := make([]float64, nS)
			for _, id := range g.servers {
				serverGroup[id] = int32(gi)
				// Buffer specs share an outID; pick the one matching the type.
				for _, si := range specByID[curRef[id]] {
					if vval[gi][si] > 0 {
						row[si]++
						countSpec[id] = int32(si)
						break
					}
				}
			}
			initCount[gi] = row
		}
	})
	stats.InitialState = clock.Since(t0)

	// ---------------- Solver build: the MIP. ------------------------------
	t0 = clock.Now()
	m := mip.NewModel()
	var initX []float64 // warm-start values, parallel to model variables
	addVar := func(v mip.Var, init float64) {
		if int(v) != len(initX) {
			panic("solver: variable/init bookkeeping out of sync")
		}
		initX = append(initX, init)
	}

	bp := &builtPhase{
		m:         m,
		region:    in.Region,
		rackLevel: rackLevel,
		cfg:       cfg,
		nDCs:      in.Region.NumDCs,
		specs:     append([]resSpec(nil), specs...),
		specByID:  specByID,
		groups:    groups,
		groupIdx:  groupIdx,
		vval:      vval,
		initCount: initCount,

		states:      append([]broker.ServerState(nil), in.States...),
		curRef:      curRef,
		serverGroup: serverGroup,
		countSpec:   countSpec,
		subset:      append([]topology.ServerID(nil), in.Subset...),
	}
	bp.inPool = make([]bool, n)
	for _, id := range pool {
		bp.inPool[id] = true
	}

	nVar := make([][]mip.Var, nG) // assignment count variables; -1 if absent
	moveVar := make([][]mip.Var, nG)
	moveRow := make([][]int, nG)
	for gi := range nVar {
		nVar[gi] = make([]mip.Var, nS)
		moveVar[gi] = make([]mip.Var, nS)
		moveRow[gi] = make([]int, nS)
		for si := range nVar[gi] {
			nVar[gi][si] = -1
			moveVar[gi][si] = -1
			moveRow[gi][si] = -1
		}
	}
	for gi, g := range groups {
		for si := range specs {
			if vval[gi][si] <= 0 {
				continue
			}
			// IO-aware placement (§5.2): worn flash assigned to a
			// flash-consuming reservation carries a per-server cost.
			wearCost := 0.0
			if cfg.WearPenalty > 0 && g.wear > 0 && cat.Type(g.typeIdx).FlashTB > 0 && !specs[si].isBuffer {
				wearCost = cfg.WearPenalty * float64(g.wear)
			}
			v := m.AddIntVar(names[gi][si], wearCost, 0, float64(len(g.servers)))
			addVar(v, initCount[gi][si])
			nVar[gi][si] = v
			bp.assignVars++
		}
	}
	bp.nVar = nVar

	// (5) assignment: Σ_s n_{g,s} ≤ |g|.
	assignRow := make([]int, nG)
	for gi, g := range groups {
		assignRow[gi] = -1
		var terms []mip.Term
		for si := range specs {
			if nVar[gi][si] >= 0 {
				terms = append(terms, mip.Term{Var: nVar[gi][si], Coef: 1})
			}
		}
		if terms != nil {
			assignRow[gi] = m.AddConstr(fmt.Sprintf("assign[g%d]", gi), terms, mip.LE, float64(len(g.servers)))
		}
	}
	bp.assignRow = assignRow

	// (1) stability: cost M · max(0, X − n) per (group, spec) with X > 0.
	for gi, g := range groups {
		mcost := cfg.MoveCostIdle
		if g.inUse {
			mcost = cfg.MoveCostInUse
		}
		for si := range specs {
			x0 := initCount[gi][si]
			if x0 <= 0 || nVar[gi][si] < 0 {
				continue
			}
			initVal := 0.0 // warm start keeps X servers, so max(0, X−n) = 0
			y := m.AddPosPart(fmt.Sprintf("move[g%d,s%d]", gi, si),
				[]mip.Term{{Var: nVar[gi][si], Coef: -1}}, x0, mcost)
			addVar(y, initVal)
			moveVar[gi][si] = y
			moveRow[gi][si] = m.NumConstrs() - 1
		}
	}
	bp.moveVar = moveVar
	bp.moveRow = moveRow

	// Per-spec structures: MSB sums, envelope, capacity, spread, affinity.
	msbGroups := make(map[int][]int, 64) // msb → group indices
	for gi, g := range groups {
		msbGroups[g.msb] = append(msbGroups[g.msb], gi)
	}
	rackGroups := make(map[int][]int, 256)
	if rackLevel {
		for gi, g := range groups {
			rackGroups[g.rack] = append(rackGroups[g.rack], gi)
		}
	}
	dcGroups := make(map[int][]int, 8)
	for gi, g := range groups {
		dcGroups[g.dc] = append(dcGroups[g.dc], gi)
	}
	bp.msbs = sortedKeys(msbGroups)
	bp.racks = sortedKeys(rackGroups)
	bp.msbIdx = make(map[int]int, len(bp.msbs))
	for k, msb := range bp.msbs {
		bp.msbIdx[msb] = k
	}
	bp.rackIdx = make(map[int]int, len(bp.racks))
	for k, rk := range bp.racks {
		bp.rackIdx[rk] = k
	}

	sp := make([]specRows, nS)
	for si := range sp {
		sp[si] = specRows{env: -1, capRow: -1, capSlack: -1}
	}

	for si := range specs {
		s := &specs[si]
		cr := s.res.RRUs
		if cr <= 0 {
			continue
		}

		// Terms and initial sums per scope.
		sumTerms := func(gis []int) ([]mip.Term, float64) {
			var terms []mip.Term
			initSum := 0.0
			for _, gi := range gis {
				if nVar[gi][si] < 0 {
					continue
				}
				terms = append(terms, mip.Term{Var: nVar[gi][si], Coef: vval[gi][si]})
				initSum += vval[gi][si] * initCount[gi][si]
			}
			return terms, initSum
		}

		var all []int
		for gi := range groups {
			all = append(all, gi)
		}
		totalTerms, initTotal := sumTerms(all)
		if totalTerms == nil {
			// Nothing in the region can serve this request: report the
			// rejection instead of silently dropping the constraint.
			sp[si].unserviceable = true
			sp[si].unservMsg = fmt.Sprintf("%s: no usable eligible server (class %v, %d eligible types, singleDC %d)",
				s.res.Name, s.res.Class, len(s.res.EligibleTypes), s.res.Policy.SingleDC)
			continue
		}
		sp[si].active = true

		// (4)+(6): envelope z ≥ per-MSB sum, cost τ; capacity row uses z.
		// Shared-buffer specs skip the embedded buffer (they *are* buffer).
		var env mip.Var = -1
		initEnv := 0.0
		alphaF := cfg.alphaF(s)
		if !s.isBuffer {
			var groupsPerMSB [][]mip.Term
			for _, msb := range bp.msbs {
				terms, isum := sumTerms(msbGroups[msb])
				if terms == nil {
					continue
				}
				groupsPerMSB = append(groupsPerMSB, terms)
				if isum > initEnv {
					initEnv = isum
				}
			}
			if groupsPerMSB != nil {
				env = m.AddUpperEnvelope(fmt.Sprintf("maxmsb[s%d]", si), groupsPerMSB, cfg.Tau)
				addVar(env, initEnv)
			}
			sp[si].env = env

			// (3) MSB spread: β · max(0, Σ − αF·C).
			sp[si].spreadRow = make([]int, len(bp.msbs))
			sp[si].spreadVar = make([]mip.Var, len(bp.msbs))
			for k, msb := range bp.msbs {
				sp[si].spreadRow[k] = -1
				sp[si].spreadVar[k] = -1
				terms, isum := sumTerms(msbGroups[msb])
				if terms == nil {
					continue
				}
				y := m.AddPosPart(fmt.Sprintf("spreadF[s%d,m%d]", si, msb),
					terms, -alphaF*cr, cfg.Beta)
				addVar(y, math.Max(0, isum-alphaF*cr))
				sp[si].spreadVar[k] = y
				sp[si].spreadRow[k] = m.NumConstrs() - 1
			}

			// (2) rack spread, phase 2 only.
			if rackLevel {
				alphaK := cfg.alphaK(s)
				sp[si].rackRow = make([]int, len(bp.racks))
				sp[si].rackVar = make([]mip.Var, len(bp.racks))
				for k, rk := range bp.racks {
					sp[si].rackRow[k] = -1
					sp[si].rackVar[k] = -1
					terms, isum := sumTerms(rackGroups[rk])
					if terms == nil {
						continue
					}
					y := m.AddPosPart(fmt.Sprintf("spreadK[s%d,r%d]", si, rk),
						terms, -alphaK*cr, cfg.Beta)
					addVar(y, math.Max(0, isum-alphaK*cr))
					sp[si].rackVar[k] = y
					sp[si].rackRow[k] = m.NumConstrs() - 1
				}
			}
		}

		// (6) capacity with embedded buffer, softened: Σ V·n − z + slack ≥ C.
		// The slack is always present (bounded to the initial violation, so a
		// clean incumbent pins it to [0,0]); keeping the column in place is
		// what lets a patch re-open it when a delta breaks the capacity.
		capTerms := append([]mip.Term(nil), totalTerms...)
		initLHS := initTotal
		if env >= 0 {
			capTerms = append(capTerms, mip.Term{Var: env, Coef: -1})
			initLHS -= initEnv
		}
		violation := math.Max(0, cr-initLHS)
		slack := m.AddVar(fmt.Sprintf("capslack[s%d]", si), cfg.SoftPenalty, 0, violation)
		m.MarkPenalty(slack)
		addVar(slack, violation)
		capTerms = append(capTerms, mip.Term{Var: slack, Coef: 1})
		bp.capSlackVars = append(bp.capSlackVars, slack)
		sp[si].capSlack = slack
		sp[si].capRow = m.AddConstr(fmt.Sprintf("capacity[s%d]", si), capTerms, mip.GE, cr)

		// (7) network affinity per DC, softened symmetrically.
		if len(s.res.Policy.DCAffinity) > 0 {
			sp[si].affRow = make([][2]int, in.Region.NumDCs)
			sp[si].affSlack = make([]mip.Var, in.Region.NumDCs)
			for dc := 0; dc < in.Region.NumDCs; dc++ {
				sp[si].affRow[dc] = [2]int{-1, -1}
				sp[si].affSlack[dc] = -1
				terms, isum := sumTerms(dcGroups[dc])
				if terms == nil {
					continue // no eligible capacity in this DC: nothing to steer
				}
				lo, hi := cfg.affRange(s, dc)
				viol := affViolation(lo, hi, isum)
				// Soften with "no regress beyond the initial violation"
				// semantics (§3.5.1), plus a two-server allowance for the
				// discrete granularity of count variables: a hard row made
				// purely of integer variables would leave rounding
				// heuristics no room to breathe.
				slackUB := viol + 2
				sl := m.AddVar(fmt.Sprintf("affslack[s%d,d%d]", si, dc),
					cfg.SoftPenalty, 0, slackUB)
				m.MarkPenalty(sl)
				addVar(sl, viol)
				bp.affSlackVars = append(bp.affSlackVars, sl)
				sp[si].affSlack[dc] = sl
				up := append(append([]mip.Term(nil), terms...), mip.Term{Var: sl, Coef: -1})
				hiRow := m.AddConstr(fmt.Sprintf("aff-hi[s%d,d%d]", si, dc), up, mip.LE, hi)
				dn := append(append([]mip.Term(nil), terms...), mip.Term{Var: sl, Coef: 1})
				loRow := m.AddConstr(fmt.Sprintf("aff-lo[s%d,d%d]", si, dc), dn, mip.GE, lo)
				sp[si].affRow[dc] = [2]int{hiRow, loRow}
			}
		}
	}
	bp.sp = sp

	m.SetInitial(initX)
	bp.initX = initX
	bp.rev = m.Revision()
	stats.SolverBuild = clock.Since(t0)
	return bp
}

// specCompatible reports whether a cached spec and a fresh one differ at
// most in requested RRUs — the only per-spec change the patch path can
// absorb as an RHS update. Everything else (eligibility, class, policy,
// identity) shapes the model's rows and columns.
func specCompatible(old, cur *resSpec) bool {
	if old.outID != cur.outID || old.countBased != cur.countBased || old.isBuffer != cur.isBuffer {
		return false
	}
	a, b := &old.res, &cur.res
	if a.ID != b.ID || a.Name != b.Name || a.Owner != b.Owner || a.Class != b.Class ||
		a.HostProfile != b.HostProfile || a.Elastic != b.Elastic || a.CountBased != b.CountBased {
		return false
	}
	if len(a.EligibleTypes) != len(b.EligibleTypes) {
		return false
	}
	for i := range a.EligibleTypes {
		if a.EligibleTypes[i] != b.EligibleTypes[i] {
			return false
		}
	}
	p, q := &a.Policy, &b.Policy
	if !exactEqual(p.SpreadMSB, q.SpreadMSB) || !exactEqual(p.SpreadRack, q.SpreadRack) ||
		!exactEqual(p.AffinityTheta, q.AffinityTheta) || p.SingleDC != q.SingleDC {
		return false
	}
	if len(p.DCAffinity) != len(q.DCAffinity) {
		return false
	}
	for dc, f := range p.DCAffinity {
		g, ok := q.DCAffinity[dc]
		if !ok || !exactEqual(f, g) {
			return false
		}
	}
	return true
}

// serverIDsEqual reports whether two server lists are identical.
func serverIDsEqual(a, b []topology.ServerID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// removeSorted removes id from the ascending list, reporting success
// (insertion reuses repair.go's insertSorted).
func removeSorted(xs *[]topology.ServerID, id topology.ServerID) bool {
	s := *xs
	i := sort.Search(len(s), func(k int) bool { return s[k] >= id })
	if i >= len(s) || s[i] != id {
		return false
	}
	*xs = append(s[:i], s[i+1:]...)
	return true
}

// patch tries to bring the cached model forward to the given input in
// place, returning false when the change set breaks structure (the caller
// then cold-rebuilds and the half-mutated cache is discarded). On success
// the model is bit-for-bit what buildPhase would have produced: the change
// set is re-derived by comparing snapshots rather than trusted from the
// delta, and every mutation is either a bound flip, an RHS update, or a
// warm-start value — never a new row, column, or coefficient.
func (bp *builtPhase) patch(in Input, cfg Config, specs []resSpec, pool []topology.ServerID,
	targets []reservation.ID) bool {

	// Structural prechecks: same config, topology, subset, and spec list.
	if cfg != bp.cfg || in.Region != bp.region || bp.m.Revision() != bp.rev {
		return false
	}
	if len(in.States) != len(bp.states) || !serverIDsEqual(in.Subset, bp.subset) {
		return false
	}
	if len(specs) != len(bp.specs) {
		return false
	}
	touchedSpec := make([]bool, len(specs))
	for si := range specs {
		if !specCompatible(&bp.specs[si], &specs[si]) {
			return false
		}
		if !exactEqual(bp.specs[si].res.RRUs, specs[si].res.RRUs) {
			if (specs[si].res.RRUs > 0) != (bp.specs[si].res.RRUs > 0) {
				return false // active-spec flip changes which rows exist
			}
			bp.specs[si].res.RRUs = specs[si].res.RRUs
			touchedSpec[si] = true
		}
	}

	inPool := make([]bool, len(bp.states))
	for _, id := range pool {
		inPool[id] = true
	}

	// Move changed servers between existing groups. A server needing a group
	// that does not exist, or emptying the one it leaves, changes the
	// model's shape — bail to the cold path.
	wearAware := cfg.WearPenalty > 0
	groupTouched := make([]bool, len(bp.groups))
	var pairs [][2]int32 // (group, spec) cells whose initCount changed
	for i := range in.States {
		newSt := in.States[i]
		newCur := newSt.Current
		if bp.rackLevel {
			newCur = targets[i]
		}
		if newSt == bp.states[i] && inPool[i] == bp.inPool[i] && newCur == bp.curRef[i] {
			continue
		}
		id := topology.ServerID(i)
		if bp.inPool[i] {
			gi := int(bp.serverGroup[i])
			if gi < 0 || !removeSorted(&bp.groups[gi].servers, id) {
				return false
			}
			if si := bp.countSpec[i]; si >= 0 {
				bp.initCount[gi][si]--
				pairs = append(pairs, [2]int32{int32(gi), si})
			}
			groupTouched[gi] = true
			bp.serverGroup[i] = -1
			bp.countSpec[i] = -1
		}
		if inPool[i] {
			gi, ok := bp.groupIdx[serverKey(in, id, bp.rackLevel, cfg.DisableSymmetry, wearAware)]
			if !ok {
				return false
			}
			bp.groups[gi].servers = insertSorted(bp.groups[gi].servers, id)
			bp.serverGroup[i] = int32(gi)
			for _, si := range bp.specByID[newCur] {
				if bp.vval[gi][si] > 0 {
					bp.initCount[gi][si]++
					bp.countSpec[i] = int32(si)
					pairs = append(pairs, [2]int32{int32(gi), int32(si)})
					break
				}
			}
			groupTouched[gi] = true
		}
		bp.states[i] = newSt
		bp.curRef[i] = newCur
		bp.inPool[i] = inPool[i]
	}

	// Group-level patches: count-variable upper bounds and assignment RHS.
	for gi, touched := range groupTouched {
		if !touched {
			continue
		}
		g := bp.groups[gi]
		if len(g.servers) == 0 {
			return false // group vanished: cold build would drop it
		}
		live := float64(len(g.servers))
		for si := range bp.specs {
			if v := bp.nVar[gi][si]; v >= 0 {
				bp.m.SetVarBounds(v, 0, live)
			}
		}
		if r := bp.assignRow[gi]; r >= 0 {
			bp.m.SetRHS(r, live)
		}
	}

	// Cell-level patches: move-hinge RHS and warm-start counts. A hinge
	// appearing (X 0→positive) or vanishing (positive→0) is structural.
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	var prev [2]int32 = [2]int32{-1, -1}
	for _, p := range pairs {
		if p == prev {
			continue
		}
		prev = p
		gi, si := int(p[0]), int(p[1])
		x0 := bp.initCount[gi][si]
		if (x0 > 0) != (bp.moveVar[gi][si] >= 0) {
			return false
		}
		if r := bp.moveRow[gi][si]; r >= 0 {
			bp.m.SetRHS(r, x0)
		}
		bp.initX[bp.nVar[gi][si]] = x0
		touchedSpec[si] = true
	}

	// Spec-level patches: envelope/spread/capacity/affinity RHS, slack
	// bounds, and warm-start values for every spec whose demand or initial
	// counts moved.
	for si := range bp.specs {
		if touchedSpec[si] && bp.sp[si].active {
			bp.refreshSpec(si)
		}
	}
	bp.m.SetInitial(bp.initX)
	return true
}

// refreshSpec recomputes one active spec's demand-dependent rows exactly as
// the cold build would: per-scope initial sums are accumulated in ascending
// group order so every float matches bit-for-bit.
func (bp *builtPhase) refreshSpec(si int) {
	s := &bp.specs[si]
	sp := &bp.sp[si]
	cfg := bp.cfg
	cr := s.res.RRUs

	initTotal := 0.0
	msum := make([]float64, len(bp.msbs))
	rsum := make([]float64, len(bp.racks))
	dsum := make([]float64, bp.nDCs)
	for gi, g := range bp.groups {
		if bp.nVar[gi][si] < 0 {
			continue
		}
		v := bp.vval[gi][si] * bp.initCount[gi][si]
		initTotal += v
		msum[bp.msbIdx[g.msb]] += v
		if bp.rackLevel {
			rsum[bp.rackIdx[g.rack]] += v
		}
		dsum[g.dc] += v
	}

	initEnv := 0.0
	if sp.env >= 0 {
		for _, v := range msum {
			if v > initEnv {
				initEnv = v
			}
		}
		bp.initX[sp.env] = initEnv
	}
	if !s.isBuffer {
		alphaF := cfg.alphaF(s)
		for k := range bp.msbs {
			row := sp.spreadRow[k]
			if row < 0 {
				continue
			}
			bp.m.SetRHS(row, -alphaF*cr)
			bp.initX[sp.spreadVar[k]] = math.Max(0, msum[k]-alphaF*cr)
		}
		if bp.rackLevel {
			alphaK := cfg.alphaK(s)
			for k := range bp.racks {
				row := sp.rackRow[k]
				if row < 0 {
					continue
				}
				bp.m.SetRHS(row, -alphaK*cr)
				bp.initX[sp.rackVar[k]] = math.Max(0, rsum[k]-alphaK*cr)
			}
		}
	}

	initLHS := initTotal
	if sp.env >= 0 {
		initLHS -= initEnv
	}
	violation := math.Max(0, cr-initLHS)
	bp.m.SetRHS(sp.capRow, cr)
	bp.m.SetVarBounds(sp.capSlack, 0, violation)
	bp.initX[sp.capSlack] = violation

	if len(s.res.Policy.DCAffinity) > 0 {
		for dc := 0; dc < bp.nDCs; dc++ {
			if sp.affRow[dc][0] < 0 {
				continue
			}
			lo, hi := cfg.affRange(s, dc)
			viol := affViolation(lo, hi, dsum[dc])
			bp.m.SetVarBounds(sp.affSlack[dc], 0, viol+2)
			bp.initX[sp.affSlack[dc]] = viol
			bp.m.SetRHS(sp.affRow[dc][0], hi)
			bp.m.SetRHS(sp.affRow[dc][1], lo)
		}
	}
}
