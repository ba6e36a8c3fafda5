package main

import (
	"fmt"
	"math/rand"
	"sort"

	"ras"
	"ras/internal/health"
	"ras/internal/sim"
	"ras/internal/workload"
)

// workloads maps each workload name to the function that runs it. Each
// sets up through b.setup, then runs closed-loop rounds, one at a time in
// virtual hours, until b.done() closes the measured window.
var workloads = map[string]func(*bench) error{
	"hourly_churn":      hourlyChurn,
	"cold_solve":        coldSolve,
	"request_churn":     requestChurn,
	"partitioned_solve": partitionedSolve,
}

// largeSpec is the 4×6×9×10 region (2160 servers) of the repository's large
// solver benchmarks.
func largeSpec(seed int64) ras.RegionSpec {
	return ras.RegionSpec{Name: "large", DCs: 4, MSBsPerDC: 6, RacksPerMSB: 9, ServersPerRack: 10, Seed: seed}
}

// smallSpec is the 2×4×6×6 region (288 servers) request_churn runs on.
func smallSpec(seed int64) ras.RegionSpec {
	return ras.RegionSpec{Name: "small", DCs: 2, MSBsPerDC: 4, RacksPerMSB: 6, ServersPerRack: 6, Seed: seed}
}

// regionSeed is the fixed region of the two churn workloads; their seed
// drives the failure, request and container streams instead, so every seed
// churns the same hardware.
const regionSeed = 9

var fillClasses = []ras.Class{ras.Web, ras.Feed1, ras.Feed2, ras.DataStore, ras.FleetAvg}

// equalSizes splits frac of the region's servers evenly over n
// reservations, as the large solver benchmarks do.
func equalSizes(servers, n int, frac float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(servers) * frac / float64(n)
	}
	return out
}

// fill creates one count-based reservation per size, cycling through the
// service classes, and returns their IDs.
func fill(b *bench, sys *ras.System, sizes []float64, profiles bool) ([]ras.ReservationID, error) {
	ids := make([]ras.ReservationID, 0, len(sizes))
	for i, size := range sizes {
		r := ras.Reservation{
			Name: fmt.Sprintf("svc-%d", i), Class: fillClasses[i%len(fillClasses)],
			RRUs: size, CountBased: true, Policy: ras.DefaultPolicy(),
		}
		if profiles {
			r.HostProfile = fmt.Sprintf("profile-%d", i%3)
		}
		var id ras.ReservationID
		var err error
		b.timed("reservation.Create", b.roundID(), func() { id, err = sys.CreateReservation(r) })
		if err != nil {
			return nil, fmt.Errorf("create reservation %s: %w", r.Name, err)
		}
		b.op("create %d class=%v rrus=%.4g", id, r.Class, r.RRUs)
		ids = append(ids, id)
	}
	return ids, nil
}

// churnHealth is the failure injection of every workload: the default rates
// with random server failures raised tenfold, so that the 2160-server
// region loses about one server an hour and the mover replaces it.
func churnHealth(seed int64) *ras.HealthConfig {
	h := health.DefaultConfig()
	h.RandomFailureRate *= 10
	h.Seed = seed
	return &h
}

func (b *bench) options(backendName string, workers, partitions int, healthSeed int64) ras.Options {
	return ras.Options{
		Backend: backendName, Solver: b.cfg, LocalSearch: localSearch, Workers: workers,
		Partitions: partitions, Health: churnHealth(healthSeed),
	}
}

// tick advances the health service by one virtual hour.
func (b *bench) tick(now ras.Clock, hour int) {
	var st health.Stats
	d := b.timed("health.Tick", b.roundID(), func() { st = b.sys.Health().Tick(now) })
	b.tickS = append(b.tickS, d)
	b.op("tick hour=%d random=%d tor=%d msb=%v", hour, st.RandomFailures, st.ToRFailures, st.MSBsFailed)
}

// maintenanceHours is the period of hourly_churn's maintenance waves, and
// so the cycle its measured window is made of.
const maintenanceHours = 6

// hourlyChurn is the paper's steady state: hourly mip rounds over the
// 2160-server region while random failures and a maintenance wave every 6 h
// change server availability. No capacity request changes.
func hourlyChurn(b *bench) error {
	err := b.setup(func() error {
		region, err := ras.NewRegion(largeSpec(regionSeed))
		if err != nil {
			return err
		}
		b.use(ras.NewSystem(region, b.options("mip", 1, 0, b.p.seed)))
		if _, err := fill(b, b.sys, equalSizes(len(region.Servers), 14, 0.7), false); err != nil {
			return err
		}
		b.round(0, 0, "mip") // warm-up: the cold first solve
		return nil
	})
	if err != nil {
		return err
	}
	for h := 1; ; h++ {
		now := ras.Clock(h) * sim.Hour
		b.tick(now, h)
		if h%maintenanceHours == 0 {
			var msb, n int
			b.timed("health.StartMaintenanceWave", b.roundID(), func() { msb, n = b.sys.Health().StartMaintenanceWave(now) })
			b.op("maintenance hour=%d msb=%d servers=%d", h, msb, n)
		}
		b.round(now, h, "mip")
		if b.done(h%maintenanceHours == 0) {
			return nil
		}
	}
}

// freshSolves solves a new 2160-server region, generated from the seed, on
// a fresh System with 14 equal reservations at 70 % fill, over and over
// until the window closes. Every solve is cold, and a run averages over as
// many regions as fit in its window. Set-up is what the first solve needs:
// its region, its System and its reservations.
func freshSolves(b *bench, backendName string, workers, partitions int) error {
	fresh := func(i int) error {
		seed := b.p.seed*1000 + int64(i)
		var region *ras.Region
		var err error
		b.timed("topology.Generate", b.roundID(), func() { region, err = ras.NewRegion(largeSpec(seed)) })
		if err != nil {
			return err
		}
		b.op("solve %d region seed=%d", i, seed)
		b.use(ras.NewSystem(region, b.options(backendName, workers, partitions, seed)))
		_, err = fill(b, b.sys, equalSizes(len(region.Servers), 14, 0.7), false)
		return err
	}
	if err := b.setup(func() error { return fresh(0) }); err != nil {
		return err
	}
	for i := 0; ; i++ {
		if i > 0 {
			if err := fresh(i); err != nil {
				return err
			}
		}
		b.round(0, i, backendName)
		if b.done(true) {
			return nil
		}
	}
}

// coldSolve is Fig 7/8 allocation time: cold model build, primal simplex
// and full branch-and-bound, bypassing deltas, patching and warm starts.
func coldSolve(b *bench) error { return freshSolves(b, "mip", 1, 0) }

// partitionedSolve runs the pop backend with k=2 sub-regions on two
// workers: the only load on partition and RepairTargets, and the only
// two-thread workload.
func partitionedSolve(b *bench) error { return freshSolves(b, "pop", 2, 2) }

// Request churn sizing: the container population the hourly Place/Stop
// stream holds around, the calls per virtual hour, the largest container
// (ras.System's default per-server stacking capacity), the reservations the
// capacity stream may add to the base ones, and the episode length.
const (
	containerTarget  = 400
	callsPerHour     = 150
	stackingUnits    = 8
	maxExtraRes      = 3
	baseReservations = 6
	episodeHours     = 12
)

// churnEpisode is one request_churn System and the streams that drive it.
type churnEpisode struct {
	rng   *rand.Rand
	reqs  *workload.RequestGen
	sizes *workload.ContainerGen
	base  []ras.ReservationID
	orig  map[ras.ReservationID]float64
	extra []ras.ReservationID
}

// newChurnEpisode sets up episode e: the 288-server region, 6 reservations
// at 70 % fill with three host profiles, the warm-up round, and the initial
// container population, all seeded from the workload seed and e.
func newChurnEpisode(b *bench, e int) (*churnEpisode, error) {
	seed := b.p.seed*1000 + int64(e)
	b.op("episode %d seed=%d", e, seed)
	region, err := ras.NewRegion(smallSpec(regionSeed))
	if err != nil {
		return nil, err
	}
	b.use(ras.NewSystem(region, b.options("mip", 1, 0, seed)))
	ep := &churnEpisode{
		rng:   rand.New(rand.NewSource(seed)),
		reqs:  workload.NewRequestGen(region.Catalog, len(region.Servers)/10, seed),
		sizes: workload.NewContainerGen(stackingUnits, seed),
		orig:  map[ras.ReservationID]float64{},
	}
	sizes := equalSizes(len(region.Servers), baseReservations, 0.7)
	if ep.base, err = fill(b, b.sys, sizes, true); err != nil {
		return nil, err
	}
	for i, id := range ep.base {
		ep.orig[id] = sizes[i]
	}
	b.round(0, 0, "mip") // warm-up: the servers must exist before containers
	for i := 0; i < containerTarget; i++ {
		b.place(ep.base[ep.rng.Intn(len(ep.base))], ep.sizes.Next())
	}
	return ep, nil
}

// hour runs one virtual hour of the episode.
func (ep *churnEpisode) hour(b *bench, h int) {
	now := ras.Clock(h) * sim.Hour
	b.tick(now, h)
	for i := 0; i < callsPerHour; i++ {
		_, _, running := b.sys.Allocator().Stats()
		res := ep.base[ep.rng.Intn(len(ep.base))]
		if ep.rng.Intn(2*containerTarget) < running && b.stopOne(res, ep.rng) {
			continue
		}
		b.place(res, ep.sizes.Next())
	}
	ep.extra = b.capacityChange(h, ep.rng, ep.reqs, ep.base, ep.orig, ep.extra)
	b.round(now, h, "localsearch")
	b.round(now, h, "mip")
}

// requestChurn is the write side: ~150 container Place/Stop calls and one
// Fig-4 capacity create, resize or delete per virtual hour on the
// 288-server region, a localsearch touch-up after each capacity change,
// then the hourly mip round. A run is made of 12-hour episodes, each on a
// fresh System with its own streams, so that a run averages over
// independent episodes rather than following one long trajectory.
func requestChurn(b *bench) error {
	var ep *churnEpisode
	err := b.setup(func() error {
		var err error
		ep, err = newChurnEpisode(b, 0)
		return err
	})
	if err != nil {
		return err
	}
	for e := 0; ; e++ {
		if e > 0 {
			err := b.unmeasured(func() error {
				var err error
				ep, err = newChurnEpisode(b, e)
				return err
			})
			if err != nil {
				return err
			}
		}
		for h := 1; h <= episodeHours; h++ {
			ep.hour(b, h)
			if b.done(h == episodeHours) {
				return nil
			}
		}
	}
}

// place starts one container, timing the call.
func (b *bench) place(res ras.ReservationID, units int) {
	var id ras.ContainerID
	var err error
	d := b.timed("allocator.Place", b.roundID(), func() { id, err = b.sys.PlaceContainer(res, "job", units) })
	b.op("place res=%d units=%d -> %d %v", res, units, id, err)
	if !b.measuring {
		return
	}
	b.placeTried++
	b.placeUS = append(b.placeUS, d*1e6)
	if err != nil {
		b.placeFails++
	}
}

// stopOne stops a random running container of the reservation, reporting
// false when it has none.
func (b *bench) stopOne(res ras.ReservationID, rng *rand.Rand) bool {
	cs := b.sys.Allocator().ContainersIn(res)
	if len(cs) == 0 {
		return false
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].ID < cs[j].ID })
	c := cs[rng.Intn(len(cs))]
	var err error
	d := b.timed("allocator.Stop", b.roundID(), func() { err = b.sys.StopContainer(c.ID) })
	b.op("stop %d %v", c.ID, err)
	if !b.measuring {
		return true
	}
	b.stopTried++
	b.stopUS = append(b.stopUS, d*1e6)
	if err != nil {
		b.stopFails++
	}
	return true
}

// capacityChange issues one Fig-4 capacity request: a create from the
// request generator, a resize of a live reservation to 85–115 % of its
// original size, or a delete of a reservation the stream created. The base
// reservations, which hold the containers, are never deleted.
func (b *bench) capacityChange(hour int, rng *rand.Rand, reqs *workload.RequestGen,
	base []ras.ReservationID, orig map[ras.ReservationID]float64, extra []ras.ReservationID) []ras.ReservationID {
	kind := rng.Intn(3)
	switch {
	case len(extra) >= maxExtraRes:
		kind = 2
	case len(extra) == 0 && kind == 2:
		kind = 0
	}
	var err error
	id := b.roundID()
	switch kind {
	case 0:
		r := reqs.Next()
		var nid ras.ReservationID
		b.timed("reservation.Create", id, func() { nid, err = b.sys.CreateReservation(r) })
		b.op("create hour=%d %d class=%v rrus=%.4g types=%v count=%t %v", hour, nid, r.Class, r.RRUs,
			r.EligibleTypes, r.CountBased, err)
		if err == nil {
			orig[nid] = r.RRUs
			extra = append(extra, nid)
		}
	case 1:
		live := append(append([]ras.ReservationID(nil), base...), extra...)
		rid := live[rng.Intn(len(live))]
		rrus := orig[rid] * (0.85 + 0.3*rng.Float64())
		b.timed("reservation.Resize", id, func() { err = b.sys.ResizeReservation(rid, rrus) })
		b.op("resize hour=%d %d rrus=%.4g %v", hour, rid, rrus, err)
	default:
		i := rng.Intn(len(extra))
		rid := extra[i]
		b.timed("reservation.Delete", id, func() { err = b.sys.DeleteReservation(rid) })
		b.op("delete hour=%d %d %v", hour, rid, err)
		if err == nil {
			extra = append(extra[:i], extra[i+1:]...)
		}
	}
	b.capTried++
	if err != nil {
		b.capFails++
	}
	return extra
}
