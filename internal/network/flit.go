// Package network implements the cycle-accurate multi-chiplet NoC
// simulation substrate used by every experiment in the heteroif library:
// flits and packets, virtual-channel input buffers with credit-based flow
// control, bandwidth×delay link pipelines, the canonical four-stage
// virtual-channel router (with the higher-radix interface-port extension of
// the paper's heterogeneous router), and the synchronous two-phase cycle
// engine.
//
// The model follows Sec. 7.1 of the paper: routing, VC allocation and switch
// allocation complete in a single cycle at zero load; on-chip transmission
// takes one cycle; cross-chiplet interfaces are modeled as behavioral
// pipelines in the on-chip clock domain (one pipeline stage per cycle of
// interface latency, bandwidth-many flits per stage).
//
// The cycle engine is activity-tracked: wake lists (busy links) and wake
// bitmaps (routers with buffered flits, sources with queued packets) limit
// each cycle to components that can make progress, and RunWith
// fast-forwards the clock across stretches where the network is provably
// idle. Both optimizations preserve bit-identical results for every seed
// and worker count. The invariants that make this safe:
//
//   - A component off its wake list would have been a no-op to visit: an
//     idle link advances nothing, an empty router tick and an empty source
//     scan change no state.
//   - Wake structures are scanned in ascending index order, so iteration
//     order among the components actually visited — and therefore
//     floating-point accumulation order in the packet sink — matches the
//     dense loops exactly.
//   - Fast-forward requires full quiescence: flitsIn == flitsOut AND every
//     wake list empty (an in-flight credit blocks idleness), and never a
//     deadlocked state (flitsIn > flitsOut), so the watchdog still trips
//     at the unoptimized cycle. Drivers that must observe every cycle pass
//     a nil next-injection callback, which disables skipping.
//   - In parallel mode, shard bounds are fixed count-balanced cuts; the
//     few wake-bitmap words a cut crosses are accessed atomically
//     (sharedWords), every other word keeps exactly one owning worker,
//     and cross-shard wake-ups travel through per-worker scratch applied
//     by the deterministic single-threaded merge.
package network

import "fmt"

// NodeID identifies a router/node in the network.
type NodeID int32

// VCID identifies a virtual channel within a physical channel.
type VCID int8

// Class is a traffic class carried by a packet. It determines ordering
// requirements and scheduling treatment at heterogeneous interfaces
// (Sec. 5.3.2, application-aware scheduling).
type Class uint8

const (
	// ClassBestEffort packets have no ordering requirement across packets;
	// their flits may bypass the reorder buffer at the parallel PHY.
	ClassBestEffort Class = iota
	// ClassInOrder packets require strict link-level ordering (e.g. cache
	// coherence traffic); their flits always pass through the reorder
	// buffer in sequence-number order.
	ClassInOrder
	// ClassLatencySensitive packets are high-priority control messages; an
	// application-aware adapter prefers the low-latency parallel PHY and
	// allows bypass (Sec. 5.3.2 "active" scheduling).
	ClassLatencySensitive
	// ClassThroughput packets are bulk data; an application-aware adapter
	// prefers the high-bandwidth serial PHY.
	ClassThroughput
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassBestEffort:
		return "best-effort"
	case ClassInOrder:
		return "in-order"
	case ClassLatencySensitive:
		return "latency-sensitive"
	case ClassThroughput:
		return "throughput"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Subnet identifies which interface subnetwork a hetero-channel packet
// prefers, as selected by Eq. 5 of the paper.
type Subnet uint8

const (
	// SubnetAny leaves the choice to the adaptive router.
	SubnetAny Subnet = iota
	// SubnetParallel prefers the parallel-IF-based mesh subnetwork.
	SubnetParallel
	// SubnetSerial prefers the serial-IF-based cube subnetwork.
	SubnetSerial
)

// Packet is a multi-flit message traversing the network. Flits reference
// their packet; per-packet routing state lives here.
type Packet struct {
	ID     uint64
	Src    NodeID
	Dst    NodeID
	Length int // flits

	Class    Class
	Priority uint8

	// CreatedAt is the cycle the packet was offered to the source queue
	// (the trace/injection time). InjectedAt is the cycle its head flit
	// entered the injection port. ArrivedAt is the cycle its tail flit was
	// ejected at the destination.
	CreatedAt  int64
	InjectedAt int64
	ArrivedAt  int64

	// Restricted is set by the livelock channel-switch restriction of
	// Sec. 6.2: once a packet falls back to the escape subnetwork because
	// the adaptive channels on its minimal paths were congested, it may
	// only use adaptive channels that lie on paths given by the baseline
	// routing function.
	Restricted bool

	// Pref is the subnetwork preference computed by the Eq. 5 selection
	// function at injection (hetero-channel systems only).
	Pref Subnet

	// Target is routing scratch: the intra-chiplet waypoint (the interface
	// node owning the next off-chip link the packet is steering toward),
	// or -1 when unset. Hypercube-based routing functions maintain it.
	Target NodeID

	// Per-channel-class hop counters, used by the energy model and the
	// weighted-path-length accounting.
	HopsOnChip   int32
	HopsParallel int32
	HopsSerial   int32
	HopsHetero   int32 // hops over bonded hetero-PHY interfaces

	// EnergyPJ accumulates the energy spent moving this packet, in
	// picojoules (links + router traversals), per Sec. 8.3.
	// EnergyOnChipPJ is the on-chip share (NoC wires + router traversals);
	// EnergyIfacePJ the die-to-die interface share.
	EnergyPJ       float64
	EnergyOnChipPJ float64
	EnergyIfacePJ  float64
}

// Hops returns the total number of hops taken so far.
func (p *Packet) Hops() int {
	return int(p.HopsOnChip + p.HopsParallel + p.HopsSerial + p.HopsHetero)
}

// Flit is one flow-control unit of a packet. Flits are passed by value; the
// packet pointer carries shared state.
type Flit struct {
	Pkt *Packet
	Seq int32 // flit index within the packet: 0 = head, Length-1 = tail
	VC  VCID  // VC assigned on the channel currently being traversed
	// SN is the link-level global sequence number a hetero-PHY adapter
	// stamps on in-order-class flits at issue time (Sec. 4.2).
	SN uint32
	// VSN is the per-VC issue sequence number a hetero-PHY adapter stamps
	// on every flit; the RX side restores per-VC FIFO order with it, which
	// wormhole/VCT switching requires (packets on one VC stay contiguous).
	VSN uint32

	// Per-flit energy accumulators (pJ). Energy is carried on the flit —
	// which has exactly one owner at any instant — and folded into the
	// packet at ejection, so parallel stepping never races on the shared
	// Packet while its flits span several routers.
	EnergyPJ       float64
	EnergyOnChipPJ float64
	EnergyIfacePJ  float64
}

// IsHead reports whether f is the head flit of its packet.
func (f Flit) IsHead() bool { return f.Seq == 0 }

// IsTail reports whether f is the tail flit of its packet.
func (f Flit) IsTail() bool { return int(f.Seq) == f.Pkt.Length-1 }
