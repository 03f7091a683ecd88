package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/consensus"
	"repro/internal/debug"
	"repro/internal/heap"
	"repro/internal/replication"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The micro measurements time one layer alone, from outside, through its
// public functions. They run once, in the traced run only; sizes shrink with
// quick so the smoke test stays short.

func microSize(full int, quick bool) int {
	if quick {
		return max(full/50, 1)
	}
	return full
}

// microHeap allocates n records on a fresh heap and collects with all of
// them live.
func microHeap(rep *report, quick bool) error {
	n := microSize(1_000_000, quick)
	h := heap.New()
	refs := make([]heap.Ref, n)
	allocS, err := seconds(func() error {
		for i := range refs {
			ref, err := h.AllocRecord(0, 4, false)
			if err != nil {
				return err
			}
			refs[i] = ref
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("heap micro: %w", err)
	}
	gcS, _ := seconds(func() error {
		h.GC(func(mark func(heap.Ref)) {
			for _, r := range refs {
				mark(r)
			}
		})
		return nil
	})
	if h.Size() < n {
		return fmt.Errorf("heap micro: %d objects survived the collection, want %d", h.Size(), n)
	}
	rep.set("heap.alloc_ns_per_obj", allocS*1e9/float64(n))
	rep.set("heap.gc_ns_per_live_obj", gcS*1e9/float64(n))
	return nil
}

// microWire encodes and decodes the captured record stream, repeated until
// enough records have passed for the clock to resolve, and frames a 4 KiB
// payload.
func microWire(rep *report, records []wire.Record, quick bool) error {
	if len(records) == 0 {
		return errors.New("wire micro: empty capture")
	}
	reps := max(microSize(400_000, quick)/len(records), 1)
	var buf wire.Buffer
	encS, err := seconds(func() error {
		for i := 0; i < reps; i++ {
			buf.Reset()
			for _, r := range records {
				if err := buf.Append(r); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wire micro: %w", err)
	}
	decS, err := seconds(func() error {
		for i := 0; i < reps; i++ {
			got, err := wire.DecodeAll(buf.Bytes())
			if err != nil {
				return err
			}
			if len(got) != len(records) {
				return fmt.Errorf("decoded %d records of %d", len(got), len(records))
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wire micro: %w", err)
	}
	total := float64(reps * len(records))
	rep.set("wire.encode_ns_per_record", encS*1e9/total)
	rep.set("wire.decode_ns_per_record", decS*1e9/total)

	frames := microSize(200_000, quick)
	payload := make([]byte, 4096)
	var scratch []byte
	frameS, err := seconds(func() error {
		for i := 0; i < frames; i++ {
			scratch = wire.AppendFrame(scratch[:0], &wire.Frame{Seq: uint64(i) + 1, AckWanted: true, Payload: payload})
			f, err := wire.DecodeFrame(scratch)
			if err != nil {
				return err
			}
			if f.Seq != uint64(i)+1 {
				return fmt.Errorf("frame %d decoded as %d", i+1, f.Seq)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wire micro: %w", err)
	}
	rep.set("wire.frame_ns", frameS*1e9/float64(frames))
	return nil
}

// echo answers every message on ep with itself until the link closes.
func echo(ep transport.Endpoint) {
	for {
		msg, err := ep.Recv(0)
		if err != nil {
			return
		}
		if ep.Send(msg) != nil {
			return
		}
	}
}

// roundTrips sends n small messages one at a time, each waiting for its echo.
func roundTrips(ep transport.Endpoint, n int) (rttUS float64, err error) {
	msg := make([]byte, 64)
	s, err := seconds(func() error {
		for i := 0; i < n; i++ {
			if err := ep.Send(msg); err != nil {
				return err
			}
			if _, err := ep.Recv(10 * time.Second); err != nil {
				return err
			}
		}
		return nil
	})
	return s * 1e6 / float64(n), err
}

// microTransport is one sender and one receiver over one link: round trips
// and one-way streaming on the in-process pipe, round trips on loopback TCP.
// Delivery on the pipe is instant, so its numbers are processor time only.
func microTransport(rep *report, quick bool) error {
	a, b := transport.Pipe(pipeCapacity)
	go echo(b)
	rtt, err := roundTrips(a, microSize(50_000, quick))
	a.Close()
	if err != nil {
		return fmt.Errorf("pipe round trips: %w", err)
	}
	rep.set("transport.pipe_rtt_us", rtt)

	a, b = transport.Pipe(pipeCapacity)
	n := microSize(100_000, quick)
	msg := make([]byte, 4096)
	received := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := b.Recv(10 * time.Second); err != nil {
				received <- err
				return
			}
		}
		received <- nil
	}()
	s, err := seconds(func() error {
		for i := 0; i < n; i++ {
			if err := a.Send(msg); err != nil {
				return err
			}
		}
		return <-received
	})
	a.Close()
	if err != nil {
		return fmt.Errorf("pipe streaming: %w", err)
	}
	rep.set("transport.pipe_mb_s", float64(n*len(msg))/mb/s)

	// Loopback TCP needs a network namespace; a sandbox without one reports
	// 0 rather than failing a run whose workloads never touch TCP.
	rep.set("transport.tcp_rtt_us", 0)
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil
	}
	defer listener.Close() // also releases the accepting goroutine
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := listener.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	client, err := transport.DialTCP(listener.Addr().String())
	if err != nil {
		return fmt.Errorf("tcp dial: %w", err)
	}
	defer client.Close() // ends the echo below
	conn, ok := <-accepted
	if !ok {
		return errors.New("tcp accept failed")
	}
	server := transport.NewTCP(conn)
	defer server.Close()
	go echo(server)
	rtt, err = roundTrips(client, microSize(20_000, quick))
	if err != nil {
		return fmt.Errorf("tcp round trips: %w", err)
	}
	rep.set("transport.tcp_rtt_us", rtt)
	return nil
}

// microConsensus measures the replicated log alone on a fresh 3-replica
// cluster: first election, sequential propose+commit round trips, streaming
// proposals, and re-election after the leader is killed.
func microConsensus(rep *report, seed uint64, quick bool) error {
	cluster, err := consensus.NewCluster(consensus.Config{Seed: seed})
	if err != nil {
		return err
	}
	cluster.Start()
	defer cluster.Stop()
	var leader *consensus.Replica
	electS, err := seconds(func() (err error) {
		leader, err = cluster.WaitLeader(10 * time.Second)
		return err
	})
	if err != nil {
		return fmt.Errorf("consensus micro: %w", err)
	}
	rep.set("consensus.elect_s", electS)

	n := microSize(2000, quick)
	small := make([]byte, 64)
	s, err := seconds(func() error {
		for i := 0; i < n; i++ {
			index, term, err := leader.Propose(small, true)
			if err != nil {
				return err
			}
			if err := leader.WaitCommit(index, term, 10*time.Second); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("consensus commit round trips: %w", err)
	}
	rep.set("consensus.commit_rtt_us", s*1e6/float64(n))

	big := make([]byte, 16<<10)
	s, err = seconds(func() error {
		var index, term uint64
		for i := 0; i < n; i++ {
			var err error
			if index, term, err = leader.Propose(big, false); err != nil {
				return err
			}
		}
		return leader.WaitCommit(index, term, 30*time.Second)
	})
	if err != nil {
		return fmt.Errorf("consensus streaming: %w", err)
	}
	rep.set("consensus.propose_mb_s", float64(n*len(big))/mb/s)

	s, err = seconds(func() error {
		cluster.Kill(leader.ID())
		_, err := cluster.WaitLeader(10 * time.Second)
		return err
	})
	if err != nil {
		return fmt.Errorf("consensus re-election: %w", err)
	}
	rep.set("consensus.reelect_s", s)
	return nil
}

// microDebug opens a time-travel session over the capture, seeks to the
// middle of the execution and steps one branch back. The checkpoint interval
// is an eighth of the execution and the target lies halfway between two
// checkpoints, so the seek takes four checkpoints and the reverse step
// restores one and replays a sixteenth of the execution.
func microDebug(rep *report, run *vmRun) error {
	log := &replication.Log{Header: run.logHeader(), Prog: run.prog, Records: run.log}
	every := max(run.stats.Branches/8, 2)
	var session *debug.Session
	s, err := seconds(func() (err error) {
		session, err = debug.OpenLog(log, debug.Options{Every: every})
		return err
	})
	if err != nil {
		return fmt.Errorf("debug open: %w", err)
	}
	defer session.Close()
	rep.set("debug.open_s", s)
	mid := 4*every + every/2
	if s, err = seconds(func() error { return session.Goto(mid) }); err != nil {
		return fmt.Errorf("debug goto: %w", err)
	}
	rep.set("debug.goto_mid_s", s)
	if s, err = seconds(session.RStep); err != nil {
		return fmt.Errorf("debug rstep: %w", err)
	}
	if session.Pos() != mid-1 {
		return fmt.Errorf("debug rstep landed on %d, want %d", session.Pos(), mid-1)
	}
	rep.set("debug.rstep_s", s)
	return nil
}
