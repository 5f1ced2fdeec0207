package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"heteroif/internal/collective"
	"heteroif/internal/core"
	"heteroif/internal/experiments"
	"heteroif/internal/network"
	"heteroif/internal/topology"
	"heteroif/internal/trace"
	"heteroif/internal/traffic"
)

// Workload names. BENCHMARK.json gates trace-phy256, dnn-phy256 and
// synth-chan784-2w; the host time of the two heavy paper-scale workloads
// did not repeat within its bounds on a shared host (see README.md).
const (
	synthPHY256  = "synth-phy256"
	tracePHY1296 = "trace-phy1296"
	tracePHY256  = "trace-phy256"
	dnnPHY256    = "dnn-phy256"
	synthChan784 = "synth-chan784-2w"
)

var workloadNames = []string{synthPHY256, tracePHY1296, tracePHY256, dnnPHY256, synthChan784}

// workload is one benchmark input: a paper system, the traffic that drives
// it, and how that traffic is cut into windows. A window is one measured
// operation: a fixed number of simulated cycles in open loop, one training
// iteration in closed loop. The first block of timed windows is the
// deterministic span the sim_* metrics are computed over.
type workload struct {
	name    string
	spec    topology.Spec
	workers int
	// closed marks a closed-loop workload, whose windows end when the work
	// does; open-loop windows are a fixed number of simulated cycles.
	closed bool
	// window is the simulated length of a synthetic window in cycles.
	window int64
	warmup int // windows run before the timed part
	block  int // timed windows in the first block, which the sim_* metrics cover
	// inputs synthesizes the workload's inputs from the seed. It is timed
	// separately and excluded from setup_s.
	inputs func(w *workload, seed int64) (inputs, error)
}

// inputs are a workload's generated inputs, ready to drive a built system.
type inputs interface {
	// start binds the inputs to a built instance. t is nil in an untraced
	// pass; otherwise the driver wraps its entry points with it.
	start(in *experiments.Instance, t *tracer) driver
	// digest identifies the generated inputs (a different seed must give a
	// different digest).
	digest() uint64
}

// driver feeds one built instance window by window.
type driver interface {
	// prepare stages window i's inputs; it is not timed.
	prepare(i int)
	// run simulates the staged window; it is the timed operation.
	run() error
	// check verifies the driver's own invariants after a window.
	check() error
}

// newWorkload returns the named workload. tiny shrinks systems and windows
// to test scale; the benchmark itself always runs the full shapes.
func newWorkload(name string, tiny bool) (*workload, error) {
	var w *workload
	switch name {
	case synthPHY256:
		// Fig. 11 system at the knee of its uniform-traffic curve.
		w = &workload{spec: heteroPHY(4, 4), window: 250, warmup: 8, block: 96, inputs: uniformInputs(0.4)}
		if tiny {
			w.spec, w.window, w.block = heteroPHY(2, 4), 200, 2
		}
	case tracePHY1296:
		// Fig. 13 paper-scale system replaying the CNS halo exchange.
		w = &workload{spec: heteroPHY(6, 6), warmup: 1, block: 4, inputs: cnsInputs(0.05, 1)}
		if tiny {
			w.spec, w.block, w.inputs = heteroPHY(2, 4), 2, cnsInputs(0.05, 16)
		}
	case tracePHY256:
		// Fig. 13 short-scale system replaying the same trace at a light
		// load: a small active working set, so host time repeats.
		w = &workload{spec: heteroPHY(4, 4), warmup: 1, block: 4, inputs: cnsInputs(0.02, 1)}
		if tiny {
			w.spec, w.block, w.inputs = heteroPHY(2, 4), 2, cnsInputs(0.02, 16)
		}
	case dnnPHY256:
		// Fig. 11 system running back-to-back DNN training iterations.
		w = &workload{spec: heteroPHY(4, 4), closed: true, warmup: 1, block: 16, inputs: dnnInputs(512)}
		if tiny {
			w.spec, w.block, w.inputs = heteroPHY(2, 4), 2, dnnInputs(16)
		}
	case synthChan784:
		// Fig. 14 short-scale hetero-channel system, stepped by 2 workers.
		w = &workload{spec: heteroChannel(4, 7), workers: 2, window: 300, warmup: 2, block: 32, inputs: uniformInputs(0.1)}
		if tiny {
			w.spec, w.window, w.block = heteroChannel(2, 4), 200, 2
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	w.name = name
	return w, nil
}

func heteroPHY(chiplets, nodes int) topology.Spec {
	return topology.Spec{System: topology.HeteroPHYTorus, ChipletsX: chiplets, ChipletsY: chiplets,
		NodesX: nodes, NodesY: nodes, Policy: core.Balanced{}}
}

func heteroChannel(chiplets, nodes int) topology.Spec {
	return topology.Spec{System: topology.HeteroChannel, ChipletsX: chiplets, ChipletsY: chiplets,
		NodesX: nodes, NodesY: nodes}
}

func (w *workload) nodes() int {
	return w.spec.ChipletsX * w.spec.ChipletsY * w.spec.NodesX * w.spec.NodesY
}

// ---- synthetic open-loop traffic -----------------------------------------

// uniformInputs is uniform Bernoulli traffic at rate flits/cycle/node; the
// seed seeds the generator.
func uniformInputs(rate float64) func(*workload, int64) (inputs, error) {
	return func(w *workload, seed int64) (inputs, error) {
		return &uniform{rate: rate, seed: seed + 17, cycles: w.window}, nil
	}
}

type uniform struct {
	rate   float64
	seed   int64
	cycles int64
}

func (u *uniform) digest() uint64 { return uint64(u.seed) }

func (u *uniform) start(in *experiments.Instance, t *tracer) driver {
	gen := traffic.NewGenerator(in.Net, traffic.Uniform{}, u.rate, u.seed)
	d := &uniformDriver{net: in.Net, cycles: u.cycles, drive: gen.Drive}
	if t != nil {
		d.drive = t.wrapDrive(layerTraffic, in.Net, gen.Drive)
	}
	return d
}

type uniformDriver struct {
	net    *network.Network
	cycles int64
	drive  func(int64)
}

func (d *uniformDriver) prepare(int) {}

func (d *uniformDriver) run() error { return d.net.Run(d.cycles, d.drive) }

func (d *uniformDriver) check() error { return nil }

// ---- CNS trace replay ------------------------------------------------------

// cnsSegments is how many distinct CNS timesteps are generated per seed;
// window i replays timestep i mod cnsSegments.
const cnsSegments = 4

// cnsStepCycles is the CNS generator's timestep length in trace cycles.
const cnsStepCycles = 2000

// cnsInputs is the CNS halo-exchange trace, one timestep per window,
// time-compressed so the offered load is rate flits/cycle/node. thin keeps
// every thin-th record (test scale only).
func cnsInputs(rate float64, thin int) func(*workload, int64) (inputs, error) {
	return func(w *workload, seed int64) (inputs, error) {
		c := &cns{}
		var flits int64
		for j := 0; j < cnsSegments; j++ {
			tr := trace.GenerateCNS(cnsStepCycles, seed*cnsSegments+int64(j))
			var recs []trace.Record
			for k, r := range tr.Records {
				if k%thin == 0 {
					recs = append(recs, r)
					flits += int64(r.Flits)
				}
			}
			c.segments = append(c.segments, recs)
		}
		// One timestep offers flits/cnsSegments flits; stretching it to
		// period cycles gives the target per-node load.
		c.period = int64(math.Round(float64(flits) / cnsSegments / (rate * float64(w.nodes()))))
		if c.period < cnsStepCycles {
			return nil, fmt.Errorf("cns: rate %.3f needs a period of %d cycles, below one trace step", rate, c.period)
		}
		scale := float64(c.period) / cnsStepCycles
		for _, seg := range c.segments {
			for k := range seg {
				seg[k].Time = int64(float64(seg[k].Time) * scale)
			}
		}
		return c, nil
	}
}

type cns struct {
	segments [][]trace.Record // times in cycles from the window start
	period   int64            // window length in cycles
}

func (c *cns) digest() uint64 {
	h := fnv.New64a()
	for _, seg := range c.segments {
		for _, r := range seg {
			fmt.Fprint(h, r.Time, r.Src, r.Dst, r.Flits)
		}
	}
	return h.Sum64()
}

func (c *cns) start(in *experiments.Instance, t *tracer) driver {
	return &cnsDriver{c: c, in: in, t: t, ranks: rankMap(in.Topo, trace.HPCRanks)}
}

type cnsDriver struct {
	c     *cns
	in    *experiments.Instance
	t     *tracer
	ranks []network.NodeID
	tr    trace.Trace
	rep   *trace.Replayer
}

// prepare shifts the window's timestep to start at the current cycle.
func (d *cnsDriver) prepare(i int) {
	seg := d.c.segments[i%len(d.c.segments)]
	now := d.in.Net.Now
	d.tr = trace.Trace{Name: "hpc-cns", Ranks: trace.HPCRanks, Cycles: d.c.period,
		Records: append(d.tr.Records[:0], seg...)}
	for k := range d.tr.Records {
		d.tr.Records[k].Time += now
	}
	// The mapping always covers the ranks, so NewReplayer cannot fail.
	d.rep, _ = trace.NewReplayer(&d.tr, d.in.Net, d.ranks, 1)
}

func (d *cnsDriver) run() error {
	drive, next := d.rep.Drive, d.rep.NextInjection
	if d.t != nil {
		drive = d.t.wrapDrive(layerTrace, d.in.Net, drive)
		next = d.t.wrapNext(layerTrace, next)
	}
	return d.in.Net.RunWith(d.c.period, drive, next)
}

func (d *cnsDriver) check() error {
	if !d.rep.Done() {
		return errors.New("replayer did not offer every record")
	}
	if d.t != nil {
		d.t.win.records += int64(len(d.tr.Records))
	}
	return nil
}

// rankMap spreads ranks over the interior nodes of each chiplet, wrapping
// when ranks outnumber them: the Fig. 13 placement.
func rankMap(t *topology.Topo, ranks int) []network.NodeID {
	var cores []network.NodeID
	perChiplet := max(ranks/(t.ChipletsX*t.ChipletsY), 1)
	var interior [][2]int
	for ny := 0; ny < t.NodesY; ny++ {
		for nx := 0; nx < t.NodesX; nx++ {
			if t.NodesX > 2 && t.NodesY > 2 && (nx == 0 || ny == 0 || nx == t.NodesX-1 || ny == t.NodesY-1) {
				continue
			}
			interior = append(interior, [2]int{nx, ny})
		}
	}
	for c := 0; c < t.ChipletsX*t.ChipletsY; c++ {
		ox, oy := t.ChipletOrigin(c)
		for i := 0; i < perChiplet && i < len(interior); i++ {
			cores = append(cores, t.NodeAt(ox+interior[i][0], oy+interior[i][1]))
		}
	}
	m := make([]network.NodeID, ranks)
	for r := range m {
		m[r] = cores[r%len(cores)]
	}
	return m
}

// ---- closed-loop DNN training ---------------------------------------------

// dnnInputs is the 3-layer layer-barrier DNN step of the collective
// experiment at gradient size `size` flits. The seed places the
// participants, one per chiplet at the same node of each chiplet, and picks
// the ring order: a rotation and a direction of the serpentine chiplet
// ring. Every seed thus keeps one D2D hop per ring step and the same
// packets, and the seeds differ in which routers and links carry them.
func dnnInputs(size int) func(*workload, int64) (inputs, error) {
	return func(w *workload, seed int64) (inputs, error) {
		n := int64(w.spec.ChipletsX * w.spec.ChipletsY)
		d := &dnn{size: size, rotate: int((seed%n + n) % n), reverse: (seed/n)%2 != 0}
		rng := rand.New(rand.NewSource(seed))
		d.place = [2]int{rng.Intn(w.spec.NodesX), rng.Intn(w.spec.NodesY)}
		return d, nil
	}
}

type dnn struct {
	size    int
	place   [2]int // participant node within every chiplet
	rotate  int    // first chiplet of the ring
	reverse bool   // walk the serpentine backwards
}

func (d *dnn) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, d.place, d.rotate, d.reverse)
	return h.Sum64()
}

// program builds the training step over one participant per chiplet.
func (d *dnn) program(t *topology.Topo) *collective.Program {
	var ring []network.NodeID
	for _, leader := range t.ChipletLeaders() {
		cx, cy := t.Chiplet(leader)
		ring = append(ring, t.NodeAt(cx*t.NodesX+d.place[0], cy*t.NodesY+d.place[1]))
	}
	parts := append(ring[d.rotate:], ring[:d.rotate]...)
	if d.reverse {
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
	}
	s := d.size
	layers := []collective.Layer{
		{Name: "embed", Compute: 8 * int64(s), GradFlits: s},
		{Name: "mlp", Compute: 16 * int64(s), GradFlits: 2 * s},
		{Name: "head", Compute: 4 * int64(s), GradFlits: s / 2},
	}
	return collective.DNNTraining(parts, layers, 64)
}

func (d *dnn) start(in *experiments.Instance, t *tracer) driver {
	return &dnnDriver{in: in, t: t, prog: d.program(in.Topo)}
}

// dnnBudget bounds one iteration's simulated cycles; a healthy iteration
// of the full-scale workload takes about 20k.
const dnnBudget = 2_000_000

type dnnDriver struct {
	in   *experiments.Instance
	t    *tracer
	prog *collective.Program
	eng  *collective.Engine
	rep  collective.Report
}

func (d *dnnDriver) prepare(int) {}

// run executes one iteration with a fresh engine, in the same chunks as
// collective.Engine.Run, so traced and untraced passes step identically.
func (d *dnnDriver) run() error {
	net := d.in.Net
	eng, err := collective.NewEngine(net, d.prog)
	if err != nil {
		return err
	}
	d.eng = eng
	drive, next := eng.Drive, eng.NextInjection
	if d.t != nil {
		drive = d.t.wrapDrive(layerCollective, net, drive)
		next = d.t.wrapNext(layerCollective, next)
		net.OnDeliver = d.t.wrapDeliver(net.OnDeliver)
	}
	deadline := net.Now + dnnBudget
	for !eng.Done() {
		chunk := min(int64(4096), deadline-net.Now)
		if chunk <= 0 {
			return fmt.Errorf("iteration incomplete after %d cycles", dnnBudget)
		}
		if err := net.RunWith(chunk, drive, next); err != nil {
			return err
		}
	}
	d.rep = eng.Report()
	return nil
}

func (d *dnnDriver) check() error {
	if !d.eng.Done() {
		return errors.New("collective not done")
	}
	if want := d.prog.TotalFlits(); d.rep.Flits != want {
		return fmt.Errorf("report carries %d flits, program has %d", d.rep.Flits, want)
	}
	if !d.in.Net.Quiescent() {
		return errors.New("network not quiescent after the collective completed")
	}
	return nil
}
