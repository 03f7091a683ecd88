package cluster

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/simtest/clock"
)

// TestPollStopsAVictimNamedInItsLastPeriod: a replica named by Stop after the
// poller's last look, and before the VM returns, is stopped all the same, so
// it cannot go on to serve the consensus read-back.
func TestPollStopsAVictimNamedInItsLastPeriod(t *testing.T) {
	clk := clock.NewVirtual()
	defer clk.Watchdog(10 * time.Second)()
	clk.Attach()
	defer clk.Detach()
	c, err := consensus.NewCluster(consensus.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	f := &Faults{clk: clk, logged: func() int { return 0 }}
	f.Poll(nil)
	clk.Sleep(pollEvery / 2) // the poller has looked once and sleeps
	f.Stop(c.Replica(0))
	f.runDone.Set() // the VM returns before the poller looks again
	f.polled.Wait()
	if !c.Replica(0).Stopped() {
		t.Fatal("the replica named in the poller's last period still runs")
	}
}
