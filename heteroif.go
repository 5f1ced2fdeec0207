// Package heteroif is a cycle-accurate simulation library for
// heterogeneous die-to-die chiplet interfaces, reproducing
//
//	Feng, Xiang, Ma — "Heterogeneous Die-to-Die Interfaces: Enabling More
//	Flexible Chiplet Interconnection Systems", MICRO 2023.
//
// The library builds complete multi-chiplet interconnection systems —
// chiplets with 2D-mesh networks-on-chip joined by parallel (AIB-like),
// serial (SerDes-like), hetero-PHY (both PHYs bonded behind one adapter)
// or hetero-channel (two independent channels) die-to-die interfaces —
// and simulates them flit by flit with credit-based virtual-channel flow
// control, deadlock-free adaptive routing, synthetic and trace-driven
// workloads, and per-packet energy accounting.
//
// # Quick start
//
//	cfg := heteroif.DefaultConfig()
//	sys, err := heteroif.Build(cfg, heteroif.Spec{
//		System:    heteroif.HeteroPHYTorus,
//		ChipletsX: 4, ChipletsY: 4,
//		NodesX:    4, NodesY: 4,
//	})
//	if err != nil { ... }
//	err = sys.RunSynthetic(heteroif.UniformTraffic(), 0.1)
//	fmt.Println(sys.Stats.MeanLatency(), sys.Stats.MeanEnergyPJ())
//
// See examples/ for complete programs and internal/experiments for the
// per-figure reproduction harness exposed by cmd/hetsim.
package heteroif

import (
	"io"

	"heteroif/internal/collective"
	"heteroif/internal/core"
	"heteroif/internal/experiments"
	"heteroif/internal/network"
	"heteroif/internal/topology"
	"heteroif/internal/trace"
	"heteroif/internal/traffic"
)

// Core simulation types.
type (
	// Config holds the simulation parameters (Table 2 of the paper).
	Config = network.Config
	// NodeID identifies a node in a built system.
	NodeID = network.NodeID
	// Packet is one message in flight.
	Packet = network.Packet
	// Class is a traffic class (best-effort, in-order, latency-sensitive,
	// throughput).
	Class = network.Class
	// Spec describes a multi-chiplet system to build.
	Spec = topology.Spec
	// SystemKind selects one of the five evaluated interconnection
	// systems.
	SystemKind = topology.System
	// System is a built, runnable system (network + topology + routing +
	// statistics).
	System = experiments.Instance
	// Result is one measured operating point.
	Result = experiments.Result
	// Pattern is a synthetic traffic pattern.
	Pattern = traffic.Pattern
	// Policy schedules flits between the two PHYs of a hetero-PHY adapter.
	Policy = core.Policy
	// Trace is a replayable packet trace.
	Trace = trace.Trace
)

// Traffic classes.
const (
	ClassBestEffort       = network.ClassBestEffort
	ClassInOrder          = network.ClassInOrder
	ClassLatencySensitive = network.ClassLatencySensitive
	ClassThroughput       = network.ClassThroughput
)

// The five evaluated interconnection systems.
const (
	// UniformParallelMesh joins chiplets with parallel interfaces only
	// into one global 2D mesh (the short-reach baseline).
	UniformParallelMesh = topology.UniformParallelMesh
	// UniformSerialTorus joins chiplets with serial interfaces into a 2D
	// torus (the long-reach baseline).
	UniformSerialTorus = topology.UniformSerialTorus
	// HeteroPHYTorus bonds a parallel and a serial PHY behind one adapter
	// on every neighbor channel, plus serial-only wraparounds (Fig. 6a).
	HeteroPHYTorus = topology.HeteroPHYTorus
	// UniformSerialHypercube joins chiplets with serial interfaces into a
	// hypercube (the high-radix baseline, Feng et al. HPCA'23).
	UniformSerialHypercube = topology.UniformSerialHypercube
	// HeteroChannel gives every chiplet an independent parallel mesh
	// channel and serial hypercube channel (Fig. 10).
	HeteroChannel = topology.HeteroChannel
)

// DefaultConfig returns the paper's Table 2 parameters: 16-flit packets,
// 2 VCs/link, 2-flit/cycle on-chip and parallel links (5-cycle parallel
// delay), 4-flit/cycle serial links (20-cycle delay), 100k-cycle windows
// with 10k warm-up.
func DefaultConfig() Config { return network.DefaultConfig() }

// Build constructs a system: the chiplet topology, its links and adapters,
// the matching deadlock-free routing algorithm, and a statistics collector
// wired into the packet sink.
func Build(cfg Config, spec Spec) (*System, error) { return experiments.Build(cfg, spec) }

// Synthetic traffic patterns (Sec. 7.2).

// UniformTraffic sends each packet to a uniformly random node.
func UniformTraffic() Pattern { return traffic.Uniform{} }

// HotspotTraffic restricts communication to a random fraction of nodes
// (the paper uses 0.10 over n nodes).
func HotspotTraffic(n int, frac float64, seed int64) Pattern {
	return traffic.NewHotspot(n, frac, seed)
}

// BitShuffleTraffic, BitComplementTraffic, BitTransposeTraffic and
// BitReverseTraffic are the four permutation patterns.
func BitShuffleTraffic() Pattern    { return traffic.BitShuffle() }
func BitComplementTraffic() Pattern { return traffic.BitComplement() }
func BitTransposeTraffic() Pattern  { return traffic.BitTranspose() }
func BitReverseTraffic() Pattern    { return traffic.BitReverse() }

// Hetero-PHY scheduling policies (Sec. 5.3). Assign one to Spec.Policy.

// BalancedPolicy uses the parallel PHY under light load and enables the
// serial PHY when the adapter queue passes a threshold (the default).
func BalancedPolicy() Policy { return core.Balanced{} }

// PerformanceFirstPolicy keeps every PHY busy whenever flits are queued.
func PerformanceFirstPolicy() Policy { return core.PerformanceFirst{} }

// EnergyEfficientPolicy never powers the serial PHY of a hetero-PHY link.
func EnergyEfficientPolicy() Policy { return core.EnergyEfficient{} }

// ApplicationAwarePolicy routes by packet class (latency-sensitive →
// parallel with bypass, throughput → serial) with a queueing timeout.
func ApplicationAwarePolicy(timeout int64) Policy {
	return core.ApplicationAware{Timeout: timeout}
}

// Trace workloads (Sec. 7.2).

// PARSECTrace synthesizes a Netrace-like 64-rank CMP trace for a named
// PARSEC workload (see PARSECWorkloads).
func PARSECTrace(workload string, cycles, seed int64) (*Trace, error) {
	return trace.GeneratePARSEC(workload, cycles, seed)
}

// PARSECWorkloads lists the available PARSEC workload names.
func PARSECWorkloads() []string { return trace.PARSECWorkloads() }

// CNSTrace synthesizes the 1024-rank compressible-Navier–Stokes halo
// exchange trace.
func CNSTrace(cycles, seed int64) *Trace { return trace.GenerateCNS(cycles, seed) }

// MOCTrace synthesizes the 1024-rank method-of-characteristics sweep trace.
func MOCTrace(cycles, seed int64) *Trace { return trace.GenerateMOC(cycles, seed) }

// ReadTrace deserializes a trace written with Trace.Write.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// Replay injects a trace into a built system, mapping rank i to node i,
// time-compressed by speedup (1 = as recorded), and runs for the
// configured simulation window.
func Replay(sys *System, tr *Trace, speedup float64) error {
	m, err := trace.LinearMap(int(tr.Ranks), sys.Topo.N)
	if err != nil {
		return err
	}
	rep, err := trace.NewReplayer(tr, sys.Net, m, speedup)
	if err != nil {
		return err
	}
	return sys.Net.RunWith(sys.Net.Cfg.SimCycles, rep.Drive, rep.NextInjection)
}

// LocalUniformTraffic confines uniform traffic to blocks of
// blockChiplets×blockChiplets chiplets (the Fig. 18 locality workload).
func LocalUniformTraffic(spec Spec, blockChiplets int) Pattern {
	return &traffic.LocalUniform{
		ChipletsX:     spec.ChipletsX,
		NodesX:        spec.NodesX,
		NodesY:        spec.NodesY,
		GX:            spec.ChipletsX * spec.NodesX,
		BlockChiplets: blockChiplets,
	}
}

// OfferPacket enqueues one packet for injection at cycle `at` (which must
// not precede the current cycle, and must be nondecreasing per source).
// Use it with RunWithDriver to build custom workloads. The returned packet
// is recycled once delivered: read it only until then.
func OfferPacket(sys *System, src, dst NodeID, flits int, class Class, at int64) *Packet {
	p := sys.Net.NewPacket(src, dst, flits, at)
	p.Class = class
	sys.Net.Offer(p)
	return p
}

// RunWithDriver advances the system `cycles` cycles, invoking drive (which
// may be nil) at the start of each cycle so callers can OfferPacket.
func RunWithDriver(sys *System, cycles int64, drive func(now int64)) error {
	return sys.Net.Run(cycles, drive)
}

// Drain runs the system without new traffic until every queued and
// in-flight packet is delivered (bounded by Config.DrainCycles). It
// reports whether the network fully drained.
func Drain(sys *System) (bool, error) { return sys.Net.Drain() }

// Closed-loop collective workloads (internal/collective): dependency-driven
// programs where each step's injections are gated on the previous step's
// deliveries, reporting workload-level completion time.
type (
	// CollectiveProgram is a DAG of point-to-point messages.
	CollectiveProgram = collective.Program
	// CollectiveEngine executes a CollectiveProgram against a system.
	CollectiveEngine = collective.Engine
	// CollectiveReport is a completed program's per-step and end-to-end
	// completion breakdown.
	CollectiveReport = collective.Report
	// DNNLayer is one layer of the DNN training traffic model.
	DNNLayer = collective.Layer
)

// RingAllReduce builds the 2-phase ring all-reduce (reduce-scatter +
// all-gather) over the participants in ring order; dataFlits is the
// per-participant payload, compute the per-chunk reduction delay.
func RingAllReduce(parts []NodeID, dataFlits int, compute int64) *CollectiveProgram {
	return collective.RingAllReduce(parts, dataFlits, compute)
}

// ReduceScatter, AllGather and AllToAll build the remaining collective
// primitives (see internal/collective for the shapes).
func ReduceScatter(parts []NodeID, dataFlits int, compute int64) *CollectiveProgram {
	return collective.ReduceScatter(parts, dataFlits, compute)
}
func AllGather(parts []NodeID, dataFlits int) *CollectiveProgram {
	return collective.AllGather(parts, dataFlits)
}
func AllToAll(parts []NodeID, flitsPerPair, window int) *CollectiveProgram {
	return collective.AllToAll(parts, flitsPerPair, window)
}

// DNNTraining builds the layer-by-layer data-parallel training model:
// per-layer compute, a gradient ring all-reduce, and a full barrier
// between layers.
func DNNTraining(parts []NodeID, layers []DNNLayer, reduceCompute int64) *CollectiveProgram {
	return collective.DNNTraining(parts, layers, reduceCompute)
}

// NewCollective attaches a collective engine to a built system. Run it
// with CollectiveEngine.Run (or drive it manually through the system's
// RunWith hooks). One engine per system at a time.
func NewCollective(sys *System, prog *CollectiveProgram) (*CollectiveEngine, error) {
	return collective.NewEngine(sys.Net, prog)
}

// ChipletLeaders returns one representative node per chiplet in
// serpentine (ring-friendly) order — the natural participant set for a
// collective over a chiplet system.
func ChipletLeaders(sys *System) []NodeID { return sys.Topo.ChipletLeaders() }

// Experiments exposes the per-figure/table reproduction registry used by
// cmd/hetsim and the root benchmarks.
func Experiments() []experiments.Experiment { return experiments.Registry }

// RunExperiment runs one named experiment (e.g. "fig11", "table3"),
// writing its report to w. full selects paper-scale windows.
func RunExperiment(id string, full bool, w io.Writer) error {
	e, err := experiments.ByID(id)
	if err != nil {
		return err
	}
	return e.Run(experiments.Options{Full: full}, w)
}
