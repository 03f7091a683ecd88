package sehandler

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/native"
	"repro/internal/wire"
)

// DevicesHandler manages the seeded input devices (sys.rand, sys.clock).
// Both draw from sequential seed-derived streams in the environment, which
// makes them the simplest case of volatile device state (§4.4): the stream
// position. The primary can die with drawn-but-unshipped result records
// (records batch FlushEvery at a time), leaving the device advanced past the
// logged prefix; and a backup's own devices sit at position zero while
// logged results are substituted without touching them. Either way, a
// recovered execution that runs past the log would continue the stream from
// the wrong position and diverge from the failure-free execution. The
// handler logs a one-byte device marker per draw, counts the markers as
// records arrive (receive), and on restore rewinds each device to its
// initial state and replays the counted draws — leaving the stream exactly
// at the end of the logged prefix, on a reused primary environment and on a
// fresh backup one alike.
type DevicesHandler struct {
	rands  uint64 // logged sys.rand draws
	clocks uint64 // logged sys.clock reads
}

var _ Handler = (*DevicesHandler)(nil)

// Device markers carried as handler data on rand/clock result records.
const (
	devRand  byte = 'r'
	devClock byte = 'c'
)

// The markers as Log returns them: read-only, shared by every draw (the
// record encoder copies handler data), so logging a draw allocates nothing.
var randMarker, clockMarker = []byte{devRand}, []byte{devClock}

// NewDevicesHandler returns the seeded-devices handler.
func NewDevicesHandler() *DevicesHandler { return &DevicesHandler{} }

// Name implements Handler.
func (h *DevicesHandler) Name() string { return native.HandlerDevices }

// Register implements Handler.
func (h *DevicesHandler) Register(reg *native.Registry) error {
	for _, sig := range []string{"sys.rand", "sys.clock"} {
		def, ok := reg.Lookup(sig)
		if !ok {
			return fmt.Errorf("%s missing from registry", sig)
		}
		if !def.NonDeterministic {
			return fmt.Errorf("%s must be non-deterministic", sig)
		}
	}
	return nil
}

// Log implements Handler: record which device the draw consumed.
func (h *DevicesHandler) Log(_ Ctx, def *native.Def, _, _ []heap.Value) ([]byte, error) {
	switch def.Sig {
	case "sys.rand":
		return randMarker, nil
	case "sys.clock":
		return clockMarker, nil
	default:
		return nil, fmt.Errorf("devices handler does not manage %s", def.Sig)
	}
}

// Receive implements Handler: count logged draws per device.
func (h *DevicesHandler) Receive(data []byte) error {
	if len(data) != 1 {
		return fmt.Errorf("devices handler: bad state length %d", len(data))
	}
	switch data[0] {
	case devRand:
		h.rands++
	case devClock:
		h.clocks++
	default:
		return fmt.Errorf("devices handler: unknown device marker %q", data[0])
	}
	return nil
}

// Test implements Handler: the managed natives are inputs, never outputs.
func (h *DevicesHandler) Test(Ctx, *native.Def, []heap.Value, *wire.OutputIntent) (bool, error) {
	return false, fmt.Errorf("devices handler manages no output commands")
}

// Restore implements Handler: rewind each device and replay the logged
// draws, positioning the stream at the end of the logged prefix.
func (h *DevicesHandler) Restore(ctx Ctx) error {
	ent := ctx.Env.Entropy()
	ent.Reset()
	for i := uint64(0); i < h.rands; i++ {
		ent.Next()
	}
	clk := ctx.Env.Clock()
	clk.Reset()
	for i := uint64(0); i < h.clocks; i++ {
		clk.Now()
	}
	return nil
}

// State implements Handler.
func (h *DevicesHandler) State() any { return nil }
