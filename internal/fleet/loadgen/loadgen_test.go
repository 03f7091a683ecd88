package loadgen

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/fuzzgen/rand"
	"repro/internal/simtest/clock"
)

// runOnce builds a fresh fleet + virtual clock and drives one workload.
func runOnce(t testing.TB, fcfg fleet.Config, lcfg Config) (*Stats, []fleet.Observation) {
	t.Helper()
	clk := clock.NewVirtual()
	defer clk.Watchdog(60 * time.Second)()
	fcfg.Clock = clk
	if len(fcfg.Nodes) == 0 {
		fcfg.Nodes = []string{"n1", "n2", "n3", "n4"}
	}
	if fcfg.Shards == 0 {
		fcfg.Shards = 8
	}
	f, err := fleet.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	clk.Attach()
	defer clk.Detach()
	st, obs, err := Run(f, clk, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, obs
}

func TestCleanRunCompletes(t *testing.T) {
	st, obs := runOnce(t, fleet.Config{}, Config{Clients: 500, OpsPerClient: 3, Seed: 1})
	if st.OKs != 1500 || st.Requests != 1500 {
		t.Fatalf("OKs %d Requests %d, want 1500 each", st.OKs, st.Requests)
	}
	if st.Retries != 0 || st.Silent != 0 || st.Unavailable != 0 {
		t.Fatalf("clean run had failures: %+v", st)
	}
	if st.Fleet.Executed != 1500 {
		t.Fatalf("fleet executed %d", st.Fleet.Executed)
	}
	if len(obs) != 1500 {
		t.Fatalf("observations %d", len(obs))
	}
	if st.Throughput <= 0 || st.P99 < st.P50 || st.P50 == 0 {
		t.Fatalf("stats: tput %.0f p50 %v p99 %v", st.Throughput, st.P50, st.P99)
	}
}

// TestDeterministicPerSeed: the full stats block — counters, checksum,
// quantiles, blast radius — is identical across runs with the same seed and
// differs across seeds.
func TestDeterministicPerSeed(t *testing.T) {
	cfg := Config{
		Clients: 800, OpsPerClient: 3, Seed: 7,
		Kills: []Kill{{At: 200 * time.Millisecond, Node: "n2"}},
	}
	a, _ := runOnce(t, fleet.Config{Fault: fleet.FaultAckDrop, FaultEvery: 37}, cfg)
	b, _ := runOnce(t, fleet.Config{Fault: fleet.FaultAckDrop, FaultEvery: 37}, cfg)
	sa, sb := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b)
	if sa != sb {
		t.Fatalf("same seed diverged:\n%s\n%s", sa, sb)
	}
	cfg.Seed = 8
	c, _ := runOnce(t, fleet.Config{Fault: fleet.FaultAckDrop, FaultEvery: 37}, cfg)
	if c.Checksum == a.Checksum {
		t.Fatal("different seeds collided on checksum")
	}
}

// TestKillMidRun: a primary kill mid-window. Every request still completes
// exactly once (Run verifies against the model), the blast stays under the
// killed node's share of the fleet, and clients with stale routes observed
// the failure path.
func TestKillMidRun(t *testing.T) {
	st, _ := runOnce(t, fleet.Config{}, Config{
		Clients: 2000, OpsPerClient: 3, Seed: 11,
		Kills: []Kill{{At: 300 * time.Millisecond, Node: "n1"}},
	})
	if st.OKs != 6000 {
		t.Fatalf("OKs %d, want 6000", st.OKs)
	}
	if st.Fleet.Promotions == 0 {
		t.Fatal("kill caused no promotions")
	}
	if st.Silent == 0 && st.Unavailable == 0 {
		t.Fatal("kill mid-window left no client-visible trace")
	}
	if st.BlastRadius <= 0 || st.BlastRadius >= 0.25 {
		t.Fatalf("blast radius %.4f, want in (0, 1/nodes)", st.BlastRadius)
	}
	if st.Fleet.Executed != st.Requests {
		t.Fatalf("executed %d != unique requests %d (at-most-once broken somewhere)", st.Fleet.Executed, st.Requests)
	}
}

// TestFaultsStillAtMostOnce: every fault kind, with a kill layered on top,
// preserves exactly-once execution per request id.
func TestFaultsStillAtMostOnce(t *testing.T) {
	for _, kind := range []string{fleet.FaultFrameDrop, fleet.FaultAckDrop, fleet.FaultReplyDrop} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			st, _ := runOnce(t,
				fleet.Config{Fault: kind, FaultEvery: 13},
				Config{
					Clients: 1000, OpsPerClient: 3, Seed: 3,
					Kills: []Kill{{At: 250 * time.Millisecond, Node: "n3"}},
				})
			if st.OKs != 3000 {
				t.Fatalf("OKs %d, want 3000", st.OKs)
			}
			if st.Retries == 0 || st.Silent == 0 {
				t.Fatalf("fault %s injected nothing: %+v", kind, st)
			}
			// Executed can exceed unique requests by the handful of ops
			// whose only (uncommitted, unreplied) execution died with the
			// killed primary — the retry's re-execution is the single one
			// that survives, which Run's model verification already proved.
			if st.Fleet.Executed < st.Requests {
				t.Fatalf("executed %d < requests %d: some request never ran", st.Fleet.Executed, st.Requests)
			}
			if st.Fleet.Executed > st.Requests+st.Fleet.Promotions*4 {
				t.Fatalf("executed %d for %d requests: re-executions beyond kill losses", st.Fleet.Executed, st.Requests)
			}
		})
	}
}

// TestScaleSmoke: a hundred-thousand-client run completes in bounded wall
// time on the virtual clock. (The full million-client run is cmd/ftvm-fleet's
// default; the spine's fleet-kill workload is the same shape at 100k.)
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short")
	}
	start := time.Now()
	st, _ := runOnce(t,
		fleet.Config{Nodes: []string{"n1", "n2", "n3", "n4", "n5"}, Shards: 16},
		Config{
			Clients: 100_000, OpsPerClient: 2, Seed: 5,
			Window:      2 * time.Second,
			SampleEvery: 64,
			Kills:       []Kill{{At: 800 * time.Millisecond, Node: "n2"}},
		})
	if st.OKs != 200_000 {
		t.Fatalf("OKs %d, want 200000", st.OKs)
	}
	if st.Fleet.Executed != st.Requests {
		t.Fatalf("executed %d != requests %d", st.Fleet.Executed, st.Requests)
	}
	if st.BlastRadius >= 1.0/5 {
		t.Fatalf("blast radius %.4f, want under 1/nodes", st.BlastRadius)
	}
	if wall := time.Since(start); wall > 2*time.Minute {
		t.Fatalf("100k-client sim took %v wall", wall)
	}
	t.Logf("100k clients: %.0f ops/s virtual, p50 %v p99 %v, blast %.4f, %v wall",
		st.Throughput, st.P50, st.P99, st.BlastRadius, time.Since(start))
}

// TestEventHeapOrderAndAllocs: the typed heap pops in the total order
// (at, seq) whatever the push order — the property that makes the run a pure
// function of its seed — and, pre-sized as Run sizes it, neither push nor pop
// allocates (container/heap boxed every event both ways).
func TestEventHeapOrderAndAllocs(t *testing.T) {
	const n = 1000
	h := make(eventHeap, 0, n)
	r := rand.New(9)
	fill := func() {
		for i := 0; i < n; i++ {
			h.push(event{at: int64(r.Intn(50)), seq: uint64(i + 1), client: int32(i)})
		}
	}
	drain := func() {
		prev := h.pop()
		for len(h) > 0 {
			next := h.pop()
			if !prev.before(next) {
				t.Fatalf("popped %+v before %+v", prev, next)
			}
			prev = next
		}
	}
	fill()
	for i := 0; i < n/2; i++ { // interleave: pops with pushes behind them
		ev := h.pop()
		h.push(event{at: ev.at + int64(r.Intn(5)), seq: uint64(n + i + 1), client: ev.client})
	}
	drain()
	if allocs := testing.AllocsPerRun(10, func() { fill(); drain() }); allocs != 0 {
		t.Errorf("event heap push+pop allocs per %d events = %v, want 0", n, allocs)
	}
}
