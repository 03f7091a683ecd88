package loadgen

import (
	"fmt"
	"strings"
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

// TestEventHeapOrderAndAllocs: over random schedules, the run's queue —
// sorted first arrivals merged with the event heap of what the run schedules —
// pops exactly the (at, seq) sequence one heap over every event pops, the
// order that makes a run a pure function of its seed. Instants are drawn from
// a narrow range so in-flight events and kills keep landing on an arrival's
// instant, where only seq decides. Once warm, neither push nor pop allocates.
func TestEventHeapOrderAndAllocs(t *testing.T) {
	r := rand.New(9)
	for schedule := 0; schedule < 200; schedule++ {
		n, span := 1+r.Intn(300), 1+r.Intn(40)
		arrivals := make([]event, n)
		var one eventHeap
		var seq uint64
		for i := range arrivals {
			seq++
			arrivals[i] = event{at: int64(r.Intn(span)), seq: seq, client: int32(i)}
			one.push(arrivals[i])
		}
		q := newQueue(arrivals)
		push := func(at int64, cl int32) {
			seq++
			q.heap.push(event{at: at, seq: seq, client: cl})
			one.push(event{at: at, seq: seq, client: cl})
		}
		for k, kills := 0, r.Intn(4); k < kills; k++ { // kills, some on an arrival's instant
			push(int64(r.Intn(span)), int32(-1-k))
		}
		for popped := 0; ; popped++ {
			got, ok := q.pop()
			if !ok {
				if len(one) > 0 {
					t.Fatalf("schedule %d: the queue ran dry with %d events left in one heap", schedule, len(one))
				}
				break
			}
			if want := one.pop(); got != want {
				t.Fatalf("schedule %d, pop %d: queue popped %+v, one heap %+v", schedule, popped, got, want)
			}
			if got.client >= 0 && r.Intn(3) > 0 { // the client's next request or retry
				push(got.at+int64(r.Intn(3)), got.client)
			}
		}
	}

	q := newQueue(nil)
	warm := func() {
		for i := 0; i < 64; i++ {
			q.heap.push(event{at: int64(r.Intn(50)), seq: uint64(i + 1), client: int32(i)})
		}
		for _, ok := q.pop(); ok; _, ok = q.pop() {
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(10, warm); allocs != 0 {
		t.Errorf("queue push+pop allocs per 64 events = %v, want 0", allocs)
	}
}

// TestRunRejectsConfigsThatCannotRun: a negative duration or try budget, a
// kill before the run starts and a kill of a node the fleet does not have are
// errors naming the field, returned before any event runs (a zero field still
// means its default).
func TestRunRejectsConfigsThatCannotRun(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(*Config)
	}{
		{"negative window", "Window", func(c *Config) { c.Window = -2 * time.Second }},
		{"negative request timeout", "ReqTimeout", func(c *Config) { c.ReqTimeout = -time.Millisecond }},
		{"negative backoff", "Backoff", func(c *Config) { c.Backoff = -1 }},
		{"negative try budget", "MaxTries", func(c *Config) { c.MaxTries = -3 }},
		{"a kill before the start", "Kills[1].At", func(c *Config) { c.Kills = append(c.Kills, Kill{At: -5 * time.Millisecond, Node: "n2"}) }},
		{"a kill of an unknown node", "Kills[1].Node", func(c *Config) { c.Kills = append(c.Kills, Kill{At: 100 * time.Millisecond, Node: "n9"}) }},
	} {
		clk := clock.NewVirtual()
		f, err := fleet.New(fleet.Config{Clock: clk, Nodes: []string{"n1", "n2", "n3"}, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Clients: 100, OpsPerClient: 2, Seed: 1, Kills: []Kill{{At: 50 * time.Millisecond, Node: "n1"}}}
		tc.edit(&cfg)
		clk.Attach()
		st, _, err := Run(f, clk, cfg)
		clk.Detach()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, want an error naming %s", tc.name, err, tc.want)
		}
		if st != nil || f.Counters() != (fleet.Counters{}) || !f.IsAlive("n1") {
			t.Errorf("%s: events ran before the config was refused: stats %v, counters %+v", tc.name, st, f.Counters())
		}
	}
}
