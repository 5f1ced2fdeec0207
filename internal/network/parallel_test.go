package network

import (
	"runtime"
	"testing"
	"time"
)

// TestParallelMatchesSequential: the parallel stepper must be bit-identical
// to sequential stepping — same deliveries, same latencies, same counters.
func TestParallelMatchesSequential(t *testing.T) {
	build := func(workers int) (*Network, map[uint64]int64) {
		cfg := DefaultConfig()
		cfg.CheckInvariants = true
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A ring of 12 nodes with mixed link kinds.
		const n = 12
		net.AddNodes(n)
		for i := 0; i < n; i++ {
			kind := KindOnChip
			if i%3 == 1 {
				kind = KindParallel
			} else if i%3 == 2 {
				kind = KindSerial
			}
			net.Connect(kind, NodeID(i), NodeID((i+1)%n))
		}
		net.Routing = ringRouting{}
		net.Finalize()
		if workers > 1 {
			net.SetWorkers(workers)
		}
		arrivals := map[uint64]int64{}
		net.Sink = func(p *Packet) { arrivals[p.ID] = p.ArrivedAt }
		// Deterministic traffic: every node sends to (i+5)%n periodically.
		drive := func(now int64) {
			if now%7 != 0 || now > 600 {
				return
			}
			for i := 0; i < n; i++ {
				pkt := net.NewPacket(NodeID(i), NodeID((i+5)%n), 8, now)
				net.Offer(pkt)
			}
		}
		if err := net.Run(1500, drive); err != nil {
			t.Fatal(err)
		}
		return net, arrivals
	}

	seqNet, seqArr := build(1)
	parNet, parArr := build(4)

	if len(seqArr) == 0 {
		t.Fatal("no traffic delivered")
	}
	if len(seqArr) != len(parArr) {
		t.Fatalf("deliveries differ: %d sequential vs %d parallel", len(seqArr), len(parArr))
	}
	for id, at := range seqArr {
		if parArr[id] != at {
			t.Fatalf("packet %d arrived at %d sequentially but %d in parallel", id, at, parArr[id])
		}
	}
	if seqNet.PacketsDelivered() != parNet.PacketsDelivered() ||
		seqNet.InFlightFlits() != parNet.InFlightFlits() {
		t.Fatal("network counters diverge between modes")
	}
	if err := parNet.CheckCredits(); err != nil {
		t.Fatal(err)
	}
}

// ringRouting forwards clockwise around the ring.
type ringRouting struct{}

func (ringRouting) Name() string { return "ring" }
func (ringRouting) Route(net *Network, r *Router, _ int, pkt *Packet, buf []Candidate) []Candidate {
	for i := 1; i < len(r.Out); i++ {
		if r.Out[i].Link != nil {
			return append(buf, Candidate{Port: i, VCMask: allVCs(net.Cfg.VCs), Escape: true})
		}
	}
	panic("ring: no out port")
}

// runSaturatedMesh drives a saturated side×side mesh for the given cycles
// and returns the network plus per-packet arrival times.
func runSaturatedMesh(t *testing.T, side, workers int, cycles int64) (*Network, map[uint64]int64) {
	t.Helper()
	net := buildXYMesh(t, side, true)
	if workers > 1 {
		net.SetWorkers(workers)
	}
	arr := map[uint64]int64{}
	net.Sink = func(p *Packet) { arr[p.ID] = p.ArrivedAt }
	for net.Now < cycles {
		saturateXYMesh(net, net.Now)
		net.Step()
	}
	if err := net.CheckCredits(); err != nil {
		t.Fatalf("side=%d workers=%d: %v", side, workers, err)
	}
	return net, arr
}

// TestParallelSubWordShards: a 64-node mesh splits mid-word (no empty
// second shard, as a 64-aligned cut would leave), the boundary wake word goes
// through the atomic shared-word path, and results stay bit-identical to
// sequential stepping. forceWorkerDispatch makes the real goroutine
// dispatch run even on a single-CPU host, so `go test -race` checks the
// cross-shard happens-before edges here.
func TestParallelSubWordShards(t *testing.T) {
	defer func(old bool) { forceWorkerDispatch = old }(forceWorkerDispatch)
	forceWorkerDispatch = true

	const side, cycles = 8, 800
	seqNet, want := runSaturatedMesh(t, side, 1, cycles)
	if len(want) == 0 {
		t.Fatal("no traffic delivered")
	}
	for _, workers := range []int{2, 3, 5} {
		net, got := runSaturatedMesh(t, side, workers, cycles)
		p := net.par
		if p.single {
			t.Fatalf("workers=%d: forced dispatch did not take effect", workers)
		}
		if workers == 2 && p.bounds[1] != 32 {
			t.Errorf("workers=2: bounds=%v, want the 64-node mesh cut at node 32", p.bounds)
		}
		shared := false
		for _, w := range p.sharedWords {
			shared = shared || w != 0
		}
		if !shared {
			t.Errorf("workers=%d: sub-word bounds %v left no shared wake word", workers, p.bounds)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d deliveries vs %d sequential", workers, len(got), len(want))
		}
		for id, at := range want {
			if got[id] != at {
				t.Fatalf("workers=%d: packet %d arrived at %d, sequential %d", workers, id, got[id], at)
			}
		}
		if net.VAFailures != seqNet.VAFailures || net.GrantsByKind != seqNet.GrantsByKind {
			t.Errorf("workers=%d: allocation counters diverge from sequential", workers)
		}
	}
}

// TestCutBounds: each cut is the count-balanced position, moved to a
// 64-aligned node within a quarter of an ideal shard, else left exact.
func TestCutBounds(t *testing.T) {
	for _, tc := range []struct {
		total, n int
		want     []int
	}{
		{64, 2, []int{0, 32, 64}},                // no aligned node within slack
		{256, 2, []int{0, 128, 256}},             // already aligned
		{784, 2, []int{0, 384, 784}},             // snapped down from 392
		{1296, 4, []int{0, 320, 640, 960, 1296}}, // 324, 648, 972 snapped
		{100, 2, []int{0, 50, 100}},              // 64 is 14 away, beyond the slack of 13
		{3, 4, []int{0, 0, 0, 2, 3}},             // more workers than nodes: empty shards
	} {
		got := cutBounds(tc.total, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("cutBounds(%d, %d) = %v, want %v", tc.total, tc.n, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("cutBounds(%d, %d) = %v, want %v", tc.total, tc.n, got, tc.want)
			}
		}
	}
}

// TestParallelStepSaturatedZeroAlloc: a saturated parallel step allocates
// nothing in steady state — the scratch merge, wake lists and worker
// dispatch all reuse preallocated storage.
func TestParallelStepSaturatedZeroAlloc(t *testing.T) {
	defer func(old bool) { forceWorkerDispatch = old }(forceWorkerDispatch)
	forceWorkerDispatch = true

	net := buildXYMesh(t, 8, false)
	net.SetWorkers(2)
	for net.Now < 3000 {
		saturateXYMesh(net, net.Now)
		net.Step()
	}
	avg := testing.AllocsPerRun(200, func() {
		saturateXYMesh(net, net.Now)
		net.Step()
	})
	if avg != 0 {
		t.Errorf("saturated parallel step allocates %.2f objects per cycle, want 0", avg)
	}
}

// TestDroppedParallelNetworkReleasesWorkers: a network stepped by real
// worker goroutines and then dropped without SetWorkers(0) must not keep
// its workers alive — nor, through them, itself.
func TestDroppedParallelNetworkReleasesWorkers(t *testing.T) {
	defer func(old bool) { forceWorkerDispatch = old }(forceWorkerDispatch)
	forceWorkerDispatch = true

	runtime.GC()
	base := runtime.NumGoroutine()
	func() {
		for i := 0; i < 5; i++ {
			net := buildXYMesh(t, 4, false)
			net.SetWorkers(2)
			for net.Now < 50 {
				saturateXYMesh(net, net.Now)
				net.Step()
			}
		}
	}()
	// Finalizers run on their own goroutine after the collection that
	// found the object unreachable, so give them a bounded number of
	// rounds.
	for try := 0; try < 50; try++ {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("%d goroutines after dropping 5 parallel networks, want at most the %d before", runtime.NumGoroutine(), base)
}
