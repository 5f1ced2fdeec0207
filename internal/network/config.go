package network

import "fmt"

// LinkKind classifies a physical channel. It selects bandwidth, delay and
// energy parameters and is the unit at which the routing algorithms reason
// about channel classes (Algorithm 1 distinguishes C_N, C_P, C_S).
type LinkKind uint8

const (
	// KindOnChip is an intra-chiplet NoC wire.
	KindOnChip LinkKind = iota
	// KindParallel is an AIB-like parallel die-to-die interface: low
	// latency, low power, short reach, moderate bandwidth.
	KindParallel
	// KindSerial is a SerDes-like serial die-to-die interface: high
	// bandwidth, long reach, high latency, high power.
	KindSerial
	// KindHeteroPHY is a heterogeneous-PHY interface: one adapter driving
	// a parallel PHY and a serial PHY concurrently (Sec. 3.1/4.2).
	KindHeteroPHY
	// KindLocal is the injection/ejection channel between a node's core
	// and its router.
	KindLocal
)

// String returns the kind name.
func (k LinkKind) String() string {
	switch k {
	case KindOnChip:
		return "on-chip"
	case KindParallel:
		return "parallel"
	case KindSerial:
		return "serial"
	case KindHeteroPHY:
		return "hetero-phy"
	case KindLocal:
		return "local"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Config carries the simulator parameters. The zero value is not useful;
// start from DefaultConfig (Table 2 of the paper).
type Config struct {
	// PacketLength is the default packet length in flits for synthetic
	// traffic (trace-driven packets carry their own lengths).
	PacketLength int

	// VCs is the number of virtual channels per physical channel.
	VCs int

	// Per-kind link bandwidth in flits/cycle and extra propagation delay
	// in cycles. On-chip transmission is 1 cycle; interface kinds add
	// their propagation delay on top of nothing — the delay below is the
	// total link traversal time in cycles.
	OnChipBandwidth   int
	OnChipDelay       int
	ParallelBandwidth int
	ParallelDelay     int
	SerialBandwidth   int
	SerialDelay       int

	// OnChipBufPerVC and IfaceBufPerVC are input buffer depths per VC in
	// flits (Table 2: 32 flits for on-chip buffers and 64 flits for
	// interface buffers; we provision them per VC). Interface buffers are
	// automatically enlarged to cover the credit round trip
	// (bandwidth × 2×delay), the "additional buffer" of Sec. 7.1.
	OnChipBufPerVC int
	IfaceBufPerVC  int

	// InjectionBandwidth and EjectionBandwidth bound how many flits per
	// cycle a node can source/sink through its local port.
	InjectionBandwidth int
	EjectionBandwidth  int

	// AdapterQueueDepth is the hetero-PHY TX multi-width FIFO depth in
	// flits (Sec. 7.3: 16-deep).
	AdapterQueueDepth int

	// Energy model, per Sec. 8.3. FlitBits is the flit width (the PARSEC
	// traces use 8-byte flits). Energies are pJ/bit for link traversal
	// plus a per-flit router traversal energy in pJ.
	FlitBits         int
	OnChipPJPerBit   float64
	ParallelPJPerBit float64
	SerialPJPerBit   float64
	RouterPJPerFlit  float64

	// SimCycles and WarmupCycles delimit the measurement window: packets
	// created during warm-up are excluded from statistics.
	SimCycles    int64
	WarmupCycles int64

	// DrainCycles bounds the post-injection drain period used by
	// trace-driven runs that want every packet delivered.
	DrainCycles int64

	// DeadlockThreshold is the number of consecutive cycles with in-flight
	// flits but zero flit movement after which the engine reports a
	// deadlock. Zero disables the watchdog.
	DeadlockThreshold int64

	// RouterPipelineExtra adds this many cycles of router pipeline latency
	// to every hop (0 = the Sec. 7.1 ideal where RC/VA/SA complete in the
	// arrival cycle). Modeled as extra link pipeline stages; an ablation
	// knob for pipeline-depth sensitivity.
	RouterPipelineExtra int

	// WormholeAdmission switches VC allocation from virtual cut-through
	// (whole-packet buffer reservation, the default — required by the
	// deadlock-freedom arguments in DESIGN.md) to plain wormhole (one free
	// slot suffices). Ablation only: wormhole admission re-opens the
	// adaptive-commitment deadlock window at saturation.
	WormholeAdmission bool

	// CheckInvariants enables internal consistency checks (credit
	// conservation, buffer bounds). Tests enable it; benchmarks do not.
	CheckInvariants bool

	// RouteLUTNodes caps the network size (in nodes) up to which a
	// RoutePure routing algorithm gets a precomputed per-(router, dst,
	// restricted) route LUT on the first Step. The LUT holds
	// O(nodes² × avg candidates) entries, so it is gated by size: 0 means
	// the default cap (512 nodes, ≈ tens of MB worst case), negative
	// disables the LUT entirely. Networks above the cap — e.g. the
	// paper-scale 3136-node systems — still get per-VC candidate
	// memoization across VA retries.
	RouteLUTNodes int

	// Workers enables deterministic parallel stepping across this many
	// shards (≤1 = sequential). Shards are contiguous node ranges cut
	// once at count-balanced positions; on a single-CPU process they run
	// inline. Results are bit-identical to sequential runs for any value;
	// worth it for saturated many-chiplet systems (1K+ nodes).
	Workers int

	// Seed seeds the run's random source.
	Seed int64
}

// DefaultConfig returns the paper's Table 2 parameters with full-bandwidth
// interfaces (4-flit/cycle serial, 2-flit/cycle parallel).
func DefaultConfig() Config {
	return Config{
		PacketLength:       16,
		VCs:                2,
		OnChipBandwidth:    2,
		OnChipDelay:        1,
		ParallelBandwidth:  2,
		ParallelDelay:      5,
		SerialBandwidth:    4,
		SerialDelay:        20,
		OnChipBufPerVC:     32,
		IfaceBufPerVC:      64,
		InjectionBandwidth: 2,
		EjectionBandwidth:  4,
		AdapterQueueDepth:  16,
		FlitBits:           64,
		OnChipPJPerBit:     0.1,
		ParallelPJPerBit:   1.0,
		SerialPJPerBit:     2.4,
		RouterPJPerFlit:    1.0,
		SimCycles:          100000,
		WarmupCycles:       10000,
		DrainCycles:        200000,
		DeadlockThreshold:  20000,
		Seed:               1,
	}
}

// Halved returns a copy of c with halved interface bandwidth (2-flit/cycle
// serial, 1-flit/cycle parallel), the pin-constrained configuration of
// Sec. 7.2 used by the "half" hetero-IF systems.
func (c Config) Halved() Config {
	c.ParallelBandwidth = max(1, c.ParallelBandwidth/2)
	c.SerialBandwidth = max(1, c.SerialBandwidth/2)
	return c
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.PacketLength <= 0:
		return fmt.Errorf("network: packet length %d must be positive", c.PacketLength)
	case c.VCs <= 0 || c.VCs > 8:
		return fmt.Errorf("network: VC count %d out of range [1,8]", c.VCs)
	case c.OnChipBandwidth <= 0 || c.ParallelBandwidth <= 0 || c.SerialBandwidth <= 0:
		return fmt.Errorf("network: bandwidths must be positive")
	case c.OnChipDelay <= 0 || c.ParallelDelay <= 0 || c.SerialDelay <= 0:
		return fmt.Errorf("network: delays must be positive")
	case c.OnChipBufPerVC <= 0 || c.IfaceBufPerVC <= 0:
		return fmt.Errorf("network: buffer depths must be positive")
	case c.SimCycles <= c.WarmupCycles:
		return fmt.Errorf("network: sim cycles %d must exceed warm-up %d", c.SimCycles, c.WarmupCycles)
	}
	return nil
}

// Bandwidth returns the configured bandwidth for a link kind; hetero-PHY is
// the sum of the two bonded PHYs.
func (c *Config) Bandwidth(k LinkKind) int {
	switch k {
	case KindOnChip:
		return c.OnChipBandwidth
	case KindParallel:
		return c.ParallelBandwidth
	case KindSerial:
		return c.SerialBandwidth
	case KindHeteroPHY:
		return c.ParallelBandwidth + c.SerialBandwidth
	case KindLocal:
		return c.InjectionBandwidth
	}
	return 1
}

// Delay returns the configured traversal delay for a link kind (plus any
// extra router pipeline depth); for hetero-PHY it is the parallel
// (minimum) delay — the adapter model applies per-PHY delays itself.
func (c *Config) Delay(k LinkKind) int {
	base := 1
	switch k {
	case KindOnChip, KindLocal:
		base = c.OnChipDelay
	case KindParallel:
		base = c.ParallelDelay
	case KindSerial:
		base = c.SerialDelay
	case KindHeteroPHY:
		base = c.ParallelDelay
	}
	return base + c.RouterPipelineExtra
}

// BufPerVC returns the per-VC input buffer depth for a channel of kind k,
// including the credit-round-trip enlargement for interface channels.
func (c *Config) BufPerVC(k LinkKind) int {
	base := c.OnChipBufPerVC
	if k != KindOnChip && k != KindLocal {
		base = c.IfaceBufPerVC
	}
	// Cover the credit round trip so flow control does not artificially
	// throttle a saturated channel (Sec. 7.1 "additional buffer").
	var rtt int
	switch k {
	case KindParallel:
		rtt = 2 * c.ParallelDelay * c.ParallelBandwidth
	case KindSerial:
		rtt = 2 * c.SerialDelay * c.SerialBandwidth
	case KindHeteroPHY:
		rtt = 2 * c.SerialDelay * (c.SerialBandwidth + c.ParallelBandwidth)
	case KindOnChip, KindLocal:
		rtt = 2 * c.OnChipDelay * c.OnChipBandwidth
	}
	return max(base, rtt)
}

// LinkPJPerBit returns the per-bit traversal energy for a link kind.
// Hetero-PHY links account energy per PHY inside the adapter, so this
// returns 0 for them.
func (c *Config) LinkPJPerBit(k LinkKind) float64 {
	switch k {
	case KindOnChip:
		return c.OnChipPJPerBit
	case KindParallel:
		return c.ParallelPJPerBit
	case KindSerial:
		return c.SerialPJPerBit
	default:
		return 0
	}
}
