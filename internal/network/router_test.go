package network

import "testing"

// twoNodeNet wires node 0 → node 1 with a link of the given kind and a
// trivial routing function that always forwards toward node 1.
func twoNodeNet(t *testing.T, kind LinkKind, mutate func(*Config)) (*Network, *Link) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	cfg.DeadlockThreshold = 5000
	if mutate != nil {
		mutate(&cfg)
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.AddNodes(2)
	l := net.Connect(kind, 0, 1)
	net.Connect(kind, 1, 0) // reverse channel, keeps things symmetric
	net.Routing = forwardRouting{}
	net.Finalize()
	return net, l
}

// forwardRouting sends every packet out the first non-local port.
type forwardRouting struct{}

func (forwardRouting) Name() string { return "forward" }
func (forwardRouting) Route(net *Network, r *Router, _ int, pkt *Packet, buf []Candidate) []Candidate {
	for i := 1; i < len(r.Out); i++ {
		if r.Out[i].Link != nil && r.Out[i].Link.Dst == pkt.Dst {
			return append(buf, Candidate{Port: i, VCMask: allVCs(net.Cfg.VCs), Escape: true})
		}
	}
	panic("forwardRouting: no port toward destination")
}

func allVCs(n int) uint16 { return uint16(1)<<n - 1 }

func runCycles(net *Network, n int64) error {
	return net.Run(n, nil)
}

func TestSinglePacketZeroLoadLatency(t *testing.T) {
	// Zero-load latency over one hop: injection (cycle 0) + router
	// pipeline (1 cycle per router) + link delay + serialization at the
	// narrowest stage + ejection. Verify the parallel link case exactly.
	for _, tc := range []struct {
		kind LinkKind
		// permitted latency window for a 16-flit packet over one hop
		lo, hi int64
	}{
		{KindParallel, 10, 20},
		{KindSerial, 20, 32},
		{KindOnChip, 5, 15},
	} {
		net, _ := twoNodeNet(t, tc.kind, nil)
		// The Sink's *Packet is recycled after the call: copy what we need.
		lat := int64(-1)
		net.Sink = func(p *Packet) { lat = p.ArrivedAt - p.CreatedAt }
		net.Offer(net.NewPacket(0, 1, 16, 0))
		if err := runCycles(net, 200); err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if lat < 0 {
			t.Fatalf("%v: packet not delivered", tc.kind)
		}
		if lat < tc.lo || lat > tc.hi {
			t.Errorf("%v: zero-load latency %d outside [%d,%d]", tc.kind, lat, tc.lo, tc.hi)
		}
		if err := net.CheckCredits(); err != nil {
			t.Errorf("%v: %v", tc.kind, err)
		}
	}
}

func TestLinkThroughputMatchesBandwidth(t *testing.T) {
	// Saturate a serial link: sustained accepted throughput must approach
	// its 4 flits/cycle bandwidth.
	net, _ := twoNodeNet(t, KindSerial, func(c *Config) {
		c.InjectionBandwidth = 8
		c.EjectionBandwidth = 8
	})
	delivered := int64(0)
	net.Sink = func(p *Packet) { delivered += int64(p.Length) }
	drive := func(now int64) {
		if net.QueuedPackets() < 4 {
			net.Offer(net.NewPacket(0, 1, 16, now))
		}
	}
	if err := net.Run(2000, drive); err != nil {
		t.Fatal(err)
	}
	thr := float64(delivered) / 2000
	if thr < 3.5 {
		t.Fatalf("serial link sustained %.2f flits/cycle, want ≈4", thr)
	}
}

func TestPacketsArriveInOrderPerFlow(t *testing.T) {
	// Packets between one src-dst pair on one VC-ordered path arrive in
	// offer order (single path: no reordering possible).
	net, _ := twoNodeNet(t, KindParallel, nil)
	var order []uint64
	net.Sink = func(p *Packet) { order = append(order, p.ID) }
	for i := 0; i < 20; i++ {
		net.Offer(net.NewPacket(0, 1, 4, int64(i)))
	}
	if err := runCycles(net, 1000); err != nil {
		t.Fatal(err)
	}
	if len(order) != 20 {
		t.Fatalf("delivered %d of 20", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("arrival order broken: %v", order)
		}
	}
}

func TestBidirectionalTrafficIndependent(t *testing.T) {
	net, _ := twoNodeNet(t, KindParallel, nil)
	got := map[NodeID]int{}
	net.Sink = func(p *Packet) { got[p.Dst]++ }
	for i := 0; i < 10; i++ {
		net.Offer(net.NewPacket(0, 1, 8, int64(i)))
		net.Offer(net.NewPacket(1, 0, 8, int64(i)))
	}
	if err := runCycles(net, 500); err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[1] != 10 {
		t.Fatalf("deliveries: %v", got)
	}
}

func TestVCTAdmissionHoldsWholePacket(t *testing.T) {
	// With a buffer exactly one packet deep, two packets must serialize:
	// the second is admitted only after the first frees the buffer.
	net, _ := twoNodeNet(t, KindOnChip, func(c *Config) {
		c.OnChipBufPerVC = 16
		c.VCs = 1
		c.PacketLength = 16
	})
	var arrivals []int64
	net.Sink = func(p *Packet) { arrivals = append(arrivals, p.ArrivedAt) }
	net.Offer(net.NewPacket(0, 1, 16, 0))
	net.Offer(net.NewPacket(0, 1, 16, 0))
	if err := runCycles(net, 500); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d of 2", len(arrivals))
	}
	if gap := arrivals[1] - arrivals[0]; gap < 8 {
		t.Errorf("second packet arrived %d cycles after first; VCT admission should serialize them", gap)
	}
}

func TestEnergyAccumulatesPerHop(t *testing.T) {
	net, _ := twoNodeNet(t, KindParallel, nil)
	var pkt Packet // a copy: the Sink's *Packet is recycled after the call
	net.Sink = func(p *Packet) { pkt = *p }
	net.Offer(net.NewPacket(0, 1, 4, 0))
	if err := runCycles(net, 200); err != nil {
		t.Fatal(err)
	}
	if pkt.ArrivedAt < 0 || pkt.Length != 4 {
		t.Fatalf("packet not delivered: %+v", pkt)
	}
	cfg := net.Cfg
	// 4 flits × (parallel link + router at src + router at dst).
	wantLink := 4 * cfg.ParallelPJPerBit * float64(cfg.FlitBits)
	wantRouter := 4 * 2 * cfg.RouterPJPerFlit
	want := wantLink + wantRouter
	if diff := pkt.EnergyPJ - want; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("energy %.1f pJ, want %.1f", pkt.EnergyPJ, want)
	}
	if pkt.HopsParallel != 1 || pkt.HopsOnChip != 0 {
		t.Errorf("hops: %d parallel / %d on-chip", pkt.HopsParallel, pkt.HopsOnChip)
	}
}

func TestDeadlockWatchdogFires(t *testing.T) {
	// A routing function that points packets at a port with a full
	// buffer... simplest: route to a port that never gets credits because
	// the downstream node's buffers are saturated by an undrained loop.
	// Easier to provoke directly: stall routing by returning a candidate
	// whose VC mask never matches free VCs.
	cfg := DefaultConfig()
	cfg.DeadlockThreshold = 100
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.AddNodes(2)
	net.Connect(KindOnChip, 0, 1)
	net.Routing = stuckRouting{}
	net.Finalize()
	net.Offer(net.NewPacket(0, 1, 4, 0))
	err = net.Run(5000, nil)
	if err == nil {
		t.Fatal("watchdog did not fire on a permanently stuck packet")
	}
}

// stuckRouting requests a VC that does not exist, so VA never succeeds.
type stuckRouting struct{}

func (stuckRouting) Name() string { return "stuck" }
func (stuckRouting) Route(net *Network, r *Router, _ int, pkt *Packet, buf []Candidate) []Candidate {
	return append(buf, Candidate{Port: 1, VCMask: 1 << 15})
}

func TestQuiescentAndDrain(t *testing.T) {
	net, _ := twoNodeNet(t, KindParallel, nil)
	if !net.Quiescent() {
		t.Fatal("fresh network not quiescent")
	}
	net.Offer(net.NewPacket(0, 1, 8, 0))
	if net.Quiescent() {
		t.Fatal("network with queued packet reported quiescent")
	}
	ok, err := net.Drain()
	if err != nil || !ok {
		t.Fatalf("drain: ok=%v err=%v", ok, err)
	}
	if net.PacketsDelivered() != 1 {
		t.Fatal("drain did not deliver the packet")
	}
}

func TestOfferSelfLoopPanics(t *testing.T) {
	net, _ := twoNodeNet(t, KindOnChip, nil)
	defer func() {
		if recover() == nil {
			t.Error("self-addressed packet accepted")
		}
	}()
	net.Offer(net.NewPacket(1, 1, 4, 0))
}

func TestSnapshotAndDiagnostics(t *testing.T) {
	net, _ := twoNodeNet(t, KindSerial, nil)
	for i := 0; i < 8; i++ {
		net.Offer(net.NewPacket(0, 1, 16, 0))
	}
	for i := 0; i < 10; i++ {
		net.Step()
	}
	s := net.TakeSnapshot(4)
	if s.FlitsBuffered == 0 && s.FlitsInLinks == 0 {
		t.Error("snapshot sees no traffic mid-flight")
	}
	if s.String() == "" {
		t.Error("empty snapshot rendering")
	}
	if rep := net.DeadlockReport(4); rep == "" {
		t.Error("empty deadlock report")
	}
}
