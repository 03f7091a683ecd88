package replication

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/minilang"
	"repro/internal/transport"
	"repro/internal/vm"
)

// condvarProgram is a bounded-buffer producer/consumer system: one producer,
// two consumers, wait/notifyAll condition synchronization — the
// wait-reacquisition paths (§4.2's "threads can also perform wait operations
// on a monitor ... we need to guarantee that they will acquire the monitor
// in the same order") under replication.
const condvarProgram = `
class Buf {
	items []int;
	head int;
	tail int;
	count int;
	produced int;
	consumed int;
	sum int;
	done int;
}
var buf Buf;
var CAP int = 4;
var TOTAL int = 120;

func produce() {
	for (var i int = 1; i <= TOTAL; i = i + 1) {
		lock (buf) {
			while (buf.count == CAP) { wait(buf); }
			buf.items[buf.tail] = i;
			buf.tail = (buf.tail + 1) % CAP;
			buf.count = buf.count + 1;
			buf.produced = buf.produced + 1;
			notifyall(buf);
		}
	}
	lock (buf) {
		buf.done = 1;
		notifyall(buf);
	}
}

func consume(id int) {
	while (true) {
		lock (buf) {
			while (buf.count == 0 && buf.done == 0) { wait(buf); }
			if (buf.count == 0 && buf.done == 1) { break; }
			var v int = buf.items[buf.head];
			buf.head = (buf.head + 1) % CAP;
			buf.count = buf.count - 1;
			buf.consumed = buf.consumed + 1;
			buf.sum = buf.sum + v;
			notifyall(buf);
		}
	}
}

func main() {
	buf = new Buf;
	buf.items = new [CAP]int;
	var p thread = spawn produce();
	var c1 thread = spawn consume(1);
	var c2 thread = spawn consume(2);
	join(p);
	join(c1);
	join(c2);
	print("sum=" + itoa(buf.sum) + " consumed=" + itoa(buf.consumed));
}
`

// TestCondvarFailoverSweep kills the primary at several points during the
// producer/consumer run, in every mode, and requires the recovered output to
// match the failure-free result (sum of 1..120 = 7260, consumed = 120).
func TestCondvarFailoverSweep(t *testing.T) {
	prog, err := minilang.Compile("condvar", condvarProgram)
	if err != nil {
		t.Fatal(err)
	}
	const want = "sum=7260 consumed=120"

	for _, mode := range []Mode{ModeLock, ModeSched, ModeLockInterval} {
		for _, killAt := range []int{3, 15, 60, 200} {
			t.Run(fmt.Sprintf("%v/kill%d", mode, killAt), func(t *testing.T) {
				environ := env.New(77)
				pa, pb := transport.Pipe(4096)
				primary, err := NewPrimary(PrimaryConfig{
					Mode:       mode,
					Backend:    pairOf(PairBackendConfig{Endpoint: pa}),
					Policy:     vm.NewSeededPolicy(31, 48, 300),
					FlushEvery: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				pvm, err := vm.New(vm.Config{
					Program: prog, Env: environ, Coordinator: primary,
					TrackProgress: mode == ModeSched,
				})
				if err != nil {
					t.Fatal(err)
				}
				backup, err := NewBackup(BackupConfig{Mode: mode, Endpoint: pb})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				var outcome ServeOutcome
				go func() { defer close(done); outcome, _ = backup.Serve() }()
				go func() {
					for backup.Store().Len() < killAt {
						select {
						case <-done:
							return
						default:
							time.Sleep(50 * time.Microsecond)
						}
					}
					pvm.Kill()
				}()
				_ = pvm.Run()
				<-done

				if outcome.Failed() {
					if _, _, err := backup.Recover(RecoverConfig{
						Program: prog,
						Env:     environ,
						Policy:  vm.NewSeededPolicy(9001, 64, 512),
					}); err != nil {
						t.Fatalf("recover: %v", err)
					}
				}
				lines := environ.Console().Lines()
				found := 0
				for _, l := range lines {
					if strings.Contains(l, "sum=") {
						found++
						if l != want {
							t.Fatalf("final line %q, want %q", l, want)
						}
					}
				}
				if found != 1 {
					t.Fatalf("sum line appeared %d times in %v", found, lines)
				}
			})
		}
	}
}
