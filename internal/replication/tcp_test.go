package replication

import (
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/transport"
	"repro/internal/vm"
)

// TestReplicationOverTCP runs the primary-backup pair over a real TCP
// connection (the paper's deployment shape), kills the primary, and checks
// that the backup's failure detector fires on the broken connection and
// recovery completes.
func TestReplicationOverTCP(t *testing.T) {
	prog := mustAssemble(t, testProgram)
	environ := env.New(99)

	addrCh := make(chan string, 1)
	type listenRes struct {
		ep  transport.Endpoint
		err error
	}
	lch := make(chan listenRes, 1)
	go func() {
		ep, _, err := transport.ListenTCPAnnounce("127.0.0.1:0", func(b string) { addrCh <- b })
		lch <- listenRes{ep, err}
	}()
	primaryEnd, err := transport.DialTCP(<-addrCh)
	if err != nil {
		t.Fatal(err)
	}
	lr := <-lch
	if lr.err != nil {
		t.Fatal(lr.err)
	}
	backupEnd := lr.ep

	// The primary dies at its third log frame: positioned by the send, not by
	// polling the backup's log, which a fast primary outruns.
	var pvm *vm.VM
	primary, err := NewPrimary(PrimaryConfig{
		Mode:       ModeLock,
		Endpoint:   &fuseEndpoint{Endpoint: primaryEnd, n: 3, fire: func() { pvm.Kill() }},
		Policy:     vm.NewSeededPolicy(11, 64, 512),
		FlushEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	pvm, err = vm.New(vm.Config{Program: prog, Env: environ, Coordinator: primary})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := NewBackup(BackupConfig{
		Mode:           ModeLock,
		Endpoint:       backupEnd,
		FailureTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var outcome ServeOutcome
	var serveErr error
	go func() { defer close(done); outcome, serveErr = backup.Serve() }()
	_ = pvm.Run()
	<-done
	if serveErr != nil {
		t.Fatalf("serve: %v", serveErr)
	}
	if outcome != OutcomePrimaryFailed {
		t.Fatalf("outcome = %v, want failed", outcome)
	}
	_, report, err := backup.Recover(RecoverConfig{Program: prog, Env: environ})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if report.RecordsInLog == 0 {
		t.Fatal("no records replayed")
	}
	checkTestProgramOutput(t, environ.Console().Lines())
}

// TestHeartbeatTimeoutDetection: a primary that stalls (neither sending nor
// closing) is detected through the receive timeout, and the outcome records
// that it was silence — not transport closure — that fired the detector.
func TestHeartbeatTimeoutDetection(t *testing.T) {
	_, bEnd := transport.Pipe(4)
	backup, err := NewBackup(BackupConfig{
		Mode:           ModeLock,
		Endpoint:       bEnd,
		FailureTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	outcome, err := backup.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomePrimaryTimedOut {
		t.Fatalf("outcome = %v, want %v", outcome, OutcomePrimaryTimedOut)
	}
	if !outcome.Failed() {
		t.Fatal("timed-out outcome must count as failed")
	}
	if time.Since(start) < 45*time.Millisecond {
		t.Fatal("detector fired too early")
	}
}

// TestHeartbeatsKeepBackupAlive: with heartbeats enabled, a slow primary is
// not falsely declared dead.
func TestHeartbeatsKeepBackupAlive(t *testing.T) {
	pEnd, bEnd := transport.Pipe(64)
	primary, err := NewPrimary(PrimaryConfig{
		Mode:           ModeLock,
		Endpoint:       pEnd,
		HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := NewBackup(BackupConfig{
		Mode:           ModeLock,
		Endpoint:       bEnd,
		FailureTimeout: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan ServeOutcome, 1)
	go func() {
		outcome, _ := backup.Serve()
		done <- outcome
	}()
	// The "slow primary" does nothing for several failure-timeout windows;
	// heartbeats must keep the detector quiet.
	time.Sleep(300 * time.Millisecond)
	select {
	case o := <-done:
		t.Fatalf("backup declared failure (%v) despite heartbeats", o)
	default:
	}
	// Clean shutdown: the halt marker ends the serve loop.
	prog := mustAssemble(t, "method main 0 void\n  ret\nend")
	pvm, err := vm.New(vm.Config{Program: prog, Env: env.New(1), Coordinator: primary})
	if err != nil {
		t.Fatal(err)
	}
	if err := pvm.Run(); err != nil {
		t.Fatal(err)
	}
	if o := <-done; o != OutcomePrimaryCompleted {
		t.Fatalf("outcome = %v", o)
	}
	if backup.Stats().Heartbeats == 0 {
		t.Fatal("no heartbeats observed")
	}
}
