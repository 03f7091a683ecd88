package loadgen

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fleet"
)

// spineRun drives the benchmark spine's fleet-kill configuration (8 nodes, 32
// shards, 2 ops per client over a 2 s window, n2 killed at 800 ms, every
// 256th client sampled) at the given population.
func spineRun(tb testing.TB, clients int, backend, fault string, every uint64) *Stats {
	tb.Helper()
	st, _ := runOnce(tb,
		fleet.Config{
			Shards: 32, Backend: backend, Fault: fault, FaultEvery: every,
			Nodes: []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"},
		},
		Config{
			Clients: clients, OpsPerClient: 2, Seed: 1, Window: 2 * time.Second, SampleEvery: 256,
			Kills: []Kill{{At: 800 * time.Millisecond, Node: "n2"}},
		})
	return st
}

// TestSpineStatsGolden pins the full loadgen.Stats of the spine's fleet
// configuration at 20 000 clients, seed 1, for both backends and every fault
// kind. The spine's own oracle is "the first run of the same binary" and
// TestSweepTraceDeterminism compares a run with itself, so neither notices a
// commit that changes what the fleet does; these strings were computed at the
// parent of the commit that added the test and cross it.
func TestSpineStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("eight 20k-client runs skipped in -short")
	}
	for _, tc := range []struct {
		backend, fault string
		want           string
	}{
		{fleet.BackendPair, fleet.FaultNone,
			"{Clients:20000 Requests:40000 OKs:40000 Retries:10 NotOwner:0 Unavailable:6 Silent:4 Elapsed:2.000547494s Throughput:19994.526558338235 P50:608µs P99:608µs BlastRadius:0.0056 TenantsActive:1250 TenantsBlasted:7 Fleet:{Executed:40000 DupHits:0 Resent:0 FramesDropped:0 AcksDropped:0 RepliesLost:0 StaleFrames:0 Promotions:4 Transfers:8} Checksum:10733413893682339274}"},
		{fleet.BackendPair, fleet.FaultFrameDrop,
			"{Clients:20000 Requests:40000 OKs:40000 Retries:426 NotOwner:0 Unavailable:6 Silent:420 Elapsed:2.017107735s Throughput:19830.373611650444 P50:608µs P99:21.504ms BlastRadius:0.0056 TenantsActive:1250 TenantsBlasted:7 Fleet:{Executed:40000 DupHits:412 Resent:416 FramesDropped:416 AcksDropped:0 RepliesLost:0 StaleFrames:0 Promotions:4 Transfers:8} Checksum:1239106483401179997}"},
		{fleet.BackendPair, fleet.FaultAckDrop,
			"{Clients:20000 Requests:40000 OKs:40000 Retries:426 NotOwner:0 Unavailable:6 Silent:420 Elapsed:2.017107735s Throughput:19830.373611650444 P50:608µs P99:21.504ms BlastRadius:0.0056 TenantsActive:1250 TenantsBlasted:7 Fleet:{Executed:40000 DupHits:412 Resent:416 FramesDropped:0 AcksDropped:416 RepliesLost:0 StaleFrames:0 Promotions:4 Transfers:8} Checksum:1239106483401179997}"},
		{fleet.BackendPair, fleet.FaultReplyDrop,
			"{Clients:20000 Requests:40000 OKs:40000 Retries:426 NotOwner:0 Unavailable:6 Silent:420 Elapsed:2.017703501s Throughput:19824.518310135994 P50:608µs P99:21.504ms BlastRadius:0.0056 TenantsActive:1250 TenantsBlasted:7 Fleet:{Executed:40000 DupHits:416 Resent:0 FramesDropped:0 AcksDropped:0 RepliesLost:416 StaleFrames:0 Promotions:4 Transfers:8} Checksum:1872855856310731472}"},
		{fleet.BackendQuorum, fleet.FaultNone,
			"{Clients:20000 Requests:40000 OKs:40000 Retries:10 NotOwner:0 Unavailable:6 Silent:4 Elapsed:2.000547494s Throughput:19994.526558338235 P50:608µs P99:608µs BlastRadius:0.0056 TenantsActive:1250 TenantsBlasted:7 Fleet:{Executed:40000 DupHits:0 Resent:0 FramesDropped:0 AcksDropped:0 RepliesLost:0 StaleFrames:0 Promotions:4 Transfers:12} Checksum:10733413893682339274}"},
		{fleet.BackendQuorum, fleet.FaultFrameDrop,
			"{Clients:20000 Requests:40000 OKs:40000 Retries:10 NotOwner:0 Unavailable:6 Silent:4 Elapsed:2.000547494s Throughput:19994.526558338235 P50:608µs P99:608µs BlastRadius:0.0056 TenantsActive:1250 TenantsBlasted:7 Fleet:{Executed:40000 DupHits:0 Resent:0 FramesDropped:824 AcksDropped:0 RepliesLost:0 StaleFrames:0 Promotions:4 Transfers:12} Checksum:10733413893682339274}"},
		{fleet.BackendQuorum, fleet.FaultAckDrop,
			"{Clients:20000 Requests:40000 OKs:40000 Retries:10 NotOwner:0 Unavailable:6 Silent:4 Elapsed:2.000547494s Throughput:19994.526558338235 P50:608µs P99:608µs BlastRadius:0.0056 TenantsActive:1250 TenantsBlasted:7 Fleet:{Executed:40000 DupHits:0 Resent:0 FramesDropped:0 AcksDropped:824 RepliesLost:0 StaleFrames:0 Promotions:4 Transfers:12} Checksum:10733413893682339274}"},
		{fleet.BackendQuorum, fleet.FaultReplyDrop,
			"{Clients:20000 Requests:40000 OKs:40000 Retries:426 NotOwner:0 Unavailable:6 Silent:420 Elapsed:2.017703501s Throughput:19824.518310135994 P50:608µs P99:21.504ms BlastRadius:0.0056 TenantsActive:1250 TenantsBlasted:7 Fleet:{Executed:40000 DupHits:416 Resent:0 FramesDropped:0 AcksDropped:0 RepliesLost:416 StaleFrames:0 Promotions:4 Transfers:12} Checksum:1872855856310731472}"},
	} {
		every := uint64(97)
		if tc.fault == fleet.FaultNone {
			every = 0
		}
		got := fmt.Sprintf("%+v", *spineRun(t, 20_000, tc.backend, tc.fault, every))
		if got != tc.want {
			t.Errorf("%s/%s: stats moved:\n got %s\nwant %s", tc.backend, tc.fault, got, tc.want)
		}
	}
}

// BenchmarkFleetKill is the spine's fleet-kill service phase — fleet.New plus
// one loadgen.Run of 100 000 clients with the mid-window kill, Checksum and
// Verify included — so the number the spine reports as service_s is
// reproducible and profilable from the package
// (go test ./internal/fleet/loadgen -run '^$' -bench FleetKill -cpuprofile …).
func BenchmarkFleetKill(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if st := spineRun(b, 100_000, fleet.BackendPair, fleet.FaultNone, 0); st.OKs != 200_000 {
			b.Fatalf("OKs %d, want 200000", st.OKs)
		}
	}
}
