package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func testEndpointPair(t *testing.T, a, b Endpoint) {
	t.Helper()
	if err := a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Recv(time.Second)
	if err != nil || string(msg) != "ping" {
		t.Fatalf("recv = %q (%v)", msg, err)
	}
	if err := b.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	msg, err = a.Recv(time.Second)
	if err != nil || string(msg) != "pong" {
		t.Fatalf("recv = %q (%v)", msg, err)
	}
	// Ordering holds under load.
	go func() {
		for i := 0; i < 100; i++ {
			_ = a.Send([]byte{byte(i)})
		}
	}()
	for i := 0; i < 100; i++ {
		msg, err := b.Recv(time.Second)
		if err != nil || len(msg) != 1 || msg[0] != byte(i) {
			t.Fatalf("message %d = %v (%v)", i, msg, err)
		}
	}
}

func TestPipeBasics(t *testing.T) {
	a, b := Pipe(4)
	testEndpointPair(t, a, b)
}

func TestPipeCloseSignalsPeer(t *testing.T) {
	a, b := Pipe(4)
	_ = a.Send([]byte("buffered"))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Buffered data drains before closure is reported.
	msg, err := b.Recv(time.Second)
	if err != nil || string(msg) != "buffered" {
		t.Fatalf("drain = %q (%v)", msg, err)
	}
	if _, err := b.Recv(100 * time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := b.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send to closed: %v", err)
	}
}

// TestPipeLocalCloseDrains: buffered messages survive the *local* end
// closing, symmetric with the peer-close drain above — closing stops new
// traffic but must not discard what was already delivered.
func TestPipeLocalCloseDrains(t *testing.T) {
	a, b := Pipe(4)
	if err := b.Send([]byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	// Ensure the message is buffered before the close.
	time.Sleep(time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	msg, err := a.Recv(time.Second)
	if err != nil || string(msg) != "in-flight" {
		t.Fatalf("drain after local close = %q (%v)", msg, err)
	}
	if _, err := a.Recv(50 * time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after drain, got %v", err)
	}
}

func TestPipeTimeout(t *testing.T) {
	a, _ := Pipe(1)
	start := time.Now()
	_, err := a.Recv(30 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("returned too early")
	}
}

// TestPipeWakeAllocatesOnlyTheCopy: a Recv that parks until a Send wakes it
// parks on a reused wait slot, and the slot on its kept timer, so an echoed
// round trip allocates its two message copies and nothing else.
func TestPipeWakeAllocatesOnlyTheCopy(t *testing.T) {
	a, b := Pipe(4)
	defer a.Close()
	go func() {
		for {
			msg, err := b.Recv(time.Minute)
			if err != nil || b.Send(msg) != nil {
				return
			}
		}
	}()
	ping := []byte("8 bytes!")
	roundTrip := func() {
		if err := a.Send(ping); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Recv(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(1000, roundTrip); allocs > 2 {
		t.Errorf("echoed round trip allocs = %v, want 2 (the copies)", allocs)
	}
}

func TestPipeMessageIsolation(t *testing.T) {
	a, b := Pipe(1)
	payload := []byte("mutate-me")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = a.Send(payload)
	}()
	<-done
	payload[0] = 'X' // sender mutating after Send must not affect receiver
	msg, err := b.Recv(time.Second)
	if err != nil || string(msg) != "mutate-me" {
		t.Fatalf("message aliased: %q (%v)", msg, err)
	}
}

func TestTCPEndpoint(t *testing.T) {
	type acceptResult struct {
		ep  Endpoint
		err error
	}
	resCh := make(chan acceptResult, 1)
	addrCh := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep, bound, err := listenTCPAsync(addrCh)
		resCh <- acceptResult{ep, err}
		_ = bound
	}()
	addr := <-addrCh
	dialer, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	wg.Wait()
	testEndpointPair(t, dialer, res.ep)

	big := bytes.Repeat([]byte("z"), 1<<16)
	if err := dialer.Send(big); err != nil {
		t.Fatal(err)
	}
	msg, err := res.ep.Recv(time.Second)
	if err != nil || !bytes.Equal(msg, big) {
		t.Fatalf("big message: %d bytes (%v)", len(msg), err)
	}

	if _, err := res.ep.Recv(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	_ = dialer.Close()
	if _, err := res.ep.Recv(time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("want closed, got %v", err)
	}
}

// listenTCPAsync is ListenTCPAnnounce adapted so the test can learn the
// bound address before Accept blocks.
func listenTCPAsync(addrCh chan<- string) (Endpoint, string, error) {
	return ListenTCPAnnounce("127.0.0.1:0", func(bound string) { addrCh <- bound })
}

// TestTCPRecvResumesAfterTimeout: a Recv timeout mid-frame (after a partial
// read of the length prefix or payload) must not desynchronize the stream —
// the next Recv resumes the partial frame and later traffic still parses.
func TestTCPRecvResumesAfterTimeout(t *testing.T) {
	cc, sc := net.Pipe()
	ep := NewTCP(sc)
	defer ep.Close()
	defer cc.Close()

	frame := func(payload []byte) []byte {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		return append(hdr[:], payload...)
	}

	// Dribble the first frame byte by byte with pauses longer than the
	// receiver's timeout, so Recv times out mid-prefix and mid-payload.
	writeErr := make(chan error, 1)
	go func() {
		b := frame([]byte("slow-frame"))
		for i := range b {
			if _, err := cc.Write(b[i : i+1]); err != nil {
				writeErr <- err
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
		// Then immediately follow with live traffic, written whole.
		_, err := cc.Write(append(frame([]byte("second")), frame([]byte("third"))...))
		writeErr <- err
	}()

	var msg []byte
	var err error
	timeouts := 0
	for {
		msg, err = ep.Recv(2 * time.Millisecond)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("recv: %v", err)
		}
		timeouts++
		if timeouts > 1000 {
			t.Fatal("frame never completed")
		}
	}
	if string(msg) != "slow-frame" {
		t.Fatalf("resumed frame = %q", msg)
	}
	if timeouts == 0 {
		t.Fatal("test never exercised a mid-frame timeout")
	}
	for _, want := range []string{"second", "third"} {
		deadline := time.Now().Add(2 * time.Second)
		for {
			msg, err = ep.Recv(5 * time.Millisecond)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrTimeout) || time.Now().After(deadline) {
				t.Fatalf("recv after resume: %v", err)
			}
		}
		if string(msg) != want {
			t.Fatalf("post-resume frame = %q, want %q", msg, want)
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("writer: %v", err)
	}
}
