package main

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/loadgen"
	"repro/internal/simtest/clock"
	"repro/internal/wire"
)

// fleetRun is the fleet workload bound to a seed, which is the load
// generator's only seed.
type fleetRun struct {
	spec fleetSpec
	seed uint64
	// oracle: the first killed run's statistics. They are a pure function of
	// (configuration, seed), so every later run must reproduce them exactly.
	want *loadgen.Stats
}

// simulation is one fleet on its own virtual clock, with the goroutine
// attached as the clock's only actor until done is called.
type simulation struct {
	fleet *fleet.Fleet
	clk   *clock.Virtual
	done  func()
}

func (r *fleetRun) newSimulation(backend string) (*simulation, error) {
	names := make([]string, r.spec.nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
	}
	clk := clock.NewVirtual()
	f, err := fleet.New(fleet.Config{Clock: clk, Nodes: names, Shards: r.spec.shards, Backend: backend})
	if err != nil {
		return nil, err
	}
	stopWatchdog := clk.Watchdog(3 * time.Minute)
	clk.Attach()
	return &simulation{fleet: f, clk: clk, done: func() { clk.Detach(); stopWatchdog() }}, nil
}

// load drives clients sessions through the fleet, open loop on the virtual
// clock, killing the victim mid-window when kill is set. loadgen.Run checks
// its sampled replies against the fleet's model itself.
func (r *fleetRun) load(sim *simulation, clients int, kill bool) (*loadgen.Stats, []fleet.Observation, error) {
	cfg := loadgen.Config{
		Clients:      clients,
		OpsPerClient: r.spec.opsPerClient,
		Seed:         r.seed,
		Window:       r.spec.window,
		SampleEvery:  256,
	}
	if kill {
		cfg.Kills = []loadgen.Kill{{At: r.spec.killAt, Node: r.spec.victim}}
	}
	st, obs, err := loadgen.Run(sim.fleet, sim.clk, cfg)
	if err != nil {
		return nil, nil, err
	}
	if want := uint64(clients * r.spec.opsPerClient); st.Requests != want || st.OKs != want || st.Fleet.Executed < st.Requests {
		return st, obs, fmt.Errorf("requests %d, oks %d, executed %d: want %d of each", st.Requests, st.OKs, st.Fleet.Executed, want)
	}
	if kill {
		if share := 1 / float64(r.spec.nodes); st.BlastRadius >= share {
			return st, obs, fmt.Errorf("blast radius %.4f reached the killed node's share %.4f", st.BlastRadius, share)
		}
	}
	return st, obs, nil
}

// buildOracle makes the first killed run, whose statistics every later one
// must reproduce; it is also the warm-up. corrupt damages them afterwards.
func (r *fleetRun) buildOracle(corrupt bool) error {
	st, err := r.service(fleet.BackendPair)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	r.want = st
	if corrupt {
		r.want.Checksum++
	}
	return nil
}

// setupPass is a cold start of the fleet: build it, serve a small fault-free
// population, verify the end state against the model.
func (r *fleetRun) setupPass() error {
	sim, err := r.newSimulation(fleet.BackendPair)
	if err != nil {
		return err
	}
	defer sim.done()
	_, obs, err := r.load(sim, r.spec.setupClients, false)
	if err != nil {
		return err
	}
	return sim.fleet.Verify(obs)
}

// service is the whole loadgen.Run with the mid-window kill: promotions,
// state transfers, client retries and drain.
func (r *fleetRun) service(backend string) (*loadgen.Stats, error) {
	sim, err := r.newSimulation(backend)
	if err != nil {
		return nil, err
	}
	defer sim.done()
	st, _, err := r.load(sim, r.spec.clients, true)
	if err != nil {
		return st, err
	}
	if r.want == nil || backend != fleet.BackendPair {
		return st, nil
	}
	if *st != *r.want {
		return st, fmt.Errorf("statistics differ from the first run with this seed: %+v, want %+v", *st, *r.want)
	}
	return st, nil
}

// baseline is the same population with no failure; it leaves the loaded
// fleet behind for the recover phase.
func (r *fleetRun) baseline() (*simulation, []fleet.Observation, error) {
	sim, err := r.newSimulation(fleet.BackendPair)
	if err != nil {
		return nil, nil, err
	}
	_, obs, err := r.load(sim, r.spec.clients, false)
	if err != nil {
		sim.done()
		return nil, nil, err
	}
	return sim, obs, nil
}

// drain is the fleet's time without service as processor time: the nodes of
// spec.drain fail one after another on a fleet that has served the whole
// load, each failure promoting backups by log replay and re-seeding recruits
// by state transfer. It returns the wall time of the first failure alone.
func (r *fleetRun) drain(sim *simulation) (firstKillS float64, err error) {
	for i, node := range r.spec.drain {
		s, err := seconds(func() error {
			_, err := sim.fleet.Kill(node)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("kill %s: %w", node, err)
		}
		if i == 0 {
			firstKillS = s
		}
	}
	return firstKillS, nil
}

// measureFleet is the untraced end-to-end run of the fleet workload.
func measureFleet(w workload, cfg runConfig) (*report, error) {
	rep := newReport(w.name)
	run := &fleetRun{spec: *w.fleet, seed: cfg.seed}
	if err := run.buildOracle(cfg.corruptOracle); err != nil {
		return nil, err
	}

	for i := 0; i < cfg.rounds; i++ {
		s, _, err := timed(run.setupPass)
		if rep.op("setup", err) {
			rep.add("setup_s", s)
		}
		var sim *simulation
		var obs []fleet.Observation
		s, _, err = timed(func() (err error) {
			sim, obs, err = run.baseline()
			return err
		})
		if rep.op("baseline", err) {
			rep.add("baseline_s", s)
			s, _, err = timed(func() error {
				_, err := run.drain(sim)
				return err
			})
			if err == nil {
				err = sim.fleet.Verify(obs)
			}
			sim.done()
			if rep.op("recover", err) {
				rep.add("recover_s", s)
			}
		}
		s, alloc, err := timed(func() error {
			_, err := run.service(fleet.BackendPair)
			return err
		})
		if rep.op("service", err) {
			rep.add("service_s", s)
			rep.add("alloc_mb", float64(alloc)/mb)
		}
	}
	return rep, nil
}

// submitLoop times Fleet.Submit alone: n distinct requests straight into a
// fresh fleet, with no load generator around them.
func (r *fleetRun) submitLoop(n int) (nsPerRequest float64, err error) {
	sim, err := r.newSimulation(fleet.BackendPair)
	if err != nil {
		return 0, err
	}
	defer sim.done()
	tenants := uint64(max(n/16, 16))
	s, err := seconds(func() error {
		for i := 0; i < n; i++ {
			req := &wire.Request{Client: uint64(i) + 1, Req: 1, Tenant: uint64(i) % tenants, Op: uint8(i % int(wire.OpKinds())), Arg: int64(i)}
			out := sim.fleet.Submit(req)
			if out.Reply == nil || out.Reply.Status != wire.StatusOK {
				return fmt.Errorf("submit %d: no OK reply", i)
			}
		}
		return nil
	})
	return s * 1e9 / float64(n), err
}
