package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"heteroif/internal/analysis"
	"heteroif/internal/experiments"
	"heteroif/internal/network"
)

// setupRepeats is how many times a pass builds its system; setup_s is the
// median and the last build runs the workload.
const setupRepeats = 9

// pass runs one workload once: repeated set-ups, warm-up windows, then
// timed windows until the time budget is spent, with correctness checks
// after every window and a drain check at the end.
type pass struct {
	w       *workload
	inp     inputs
	seed    int64
	seconds float64
	t       *tracer // nil for an untraced pass

	in     *experiments.Instance
	drv    driver
	setups []float64 // seconds per set-up

	// bisection is the flit capacity per cycle across the X midline, both
	// directions together; crossed counts delivered flits whose source and
	// destination lie on opposite sides of it, in the current window.
	bisection int64
	midX      int
	crossed   int64

	// Open-loop completion of the first block's windows: when each window
	// started, and the latest delivery of a packet created in it.
	tracking bool
	winStart []int64
	winLast  []int64

	coll       counts   // collective reports summed over all windows
	samples    []sample // timed windows
	sim        simMetrics
	first      counts // first-block deltas
	maxQueue   int
	maxROB     int
	heapMB     float64
	cpuPerWall float64
	allocBytes float64 // per simulated cycle, first block
	gcCount    float64 // first block

	attempted int
	failures  []string
}

// sample is one timed window.
type sample struct {
	seconds float64 // process CPU time
	wall    float64 // wall seconds
	cycles  int64
	grants  int64
}

// simMetrics are the simulated results of the first block. For a fixed
// seed they repeat exactly.
type simMetrics struct {
	LatencyMean float64
	LatencyP99  float64
	Accepted    float64
	EnergyPJ    float64
	Completion  float64
}

// counts are the simulator's own deterministic counters; the traced pass
// must reproduce the untraced pass's first-block deltas exactly.
type counts struct {
	Cycles, Grants, IfaceGrants, VAFailures int64
	Injected, Delivered, Offered            int64
	ParallelFlits, SerialFlits              int64
	Msgs, CommCycles, StallCycles, Elapsed  int64
}

func (c counts) minus(o counts) counts {
	return counts{
		c.Cycles - o.Cycles, c.Grants - o.Grants, c.IfaceGrants - o.IfaceGrants, c.VAFailures - o.VAFailures,
		c.Injected - o.Injected, c.Delivered - o.Delivered, c.Offered - o.Offered,
		c.ParallelFlits - o.ParallelFlits, c.SerialFlits - o.SerialFlits,
		c.Msgs - o.Msgs, c.CommCycles - o.CommCycles, c.StallCycles - o.StallCycles, c.Elapsed - o.Elapsed,
	}
}

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// setup builds the system setupRepeats times, timing each build through
// the first Step (route LUT and slab preparation) in process CPU time, and
// keeps the last.
func (p *pass) setup() error {
	cfg := network.DefaultConfig()
	cfg.Seed = p.seed
	cfg.Workers = p.w.workers
	for k := 0; k < setupRepeats; k++ {
		p.stop()
		p.in = nil
		runtime.GC()
		spec := p.w.spec
		if p.t != nil && spec.Policy != nil {
			spec.Policy = &tracedPolicy{inner: spec.Policy, t: p.t}
		}
		t0 := cpuTime()
		in, err := experiments.Build(cfg, spec)
		if err != nil {
			return fmt.Errorf("build %s: %w", p.w.name, err)
		}
		t1 := cpuTime()
		if p.t != nil {
			in.Net.Routing = &tracedRouting{inner: in.Net.Routing, t: p.t}
			p.t.resetWindow()
		}
		in.Net.Step()
		t2 := cpuTime()
		p.setups = append(p.setups, (t2 - t0).Seconds())
		if p.t != nil {
			p.t.builds = append(p.t.builds, (t1 - t0).Seconds())
			p.t.prepares = append(p.t.prepares, (t2 - t1).Seconds())
			p.t.setupRouteCalls = p.t.win.calls[seamRoute]
			p.t.resetWindow()
		}
		p.in = in
	}
	net := p.in.Net
	rep := analysis.Analyze(p.in.Topo, &net.Cfg, analysis.HopCosts())
	p.bisection = int64(rep.BisectionFlits)
	p.midX = p.in.Topo.GX / 2
	stats := net.Sink
	if p.t != nil {
		stats = p.t.wrapSink(stats)
	}
	net.Sink = func(pk *network.Packet) {
		p.observe(pk)
		stats(pk)
	}
	p.drv = p.inp.start(p.in, p.t)
	return nil
}

// stop releases the parallel stepping workers of the current instance.
func (p *pass) stop() {
	if p.in != nil && p.w.workers > 1 {
		p.in.Net.SetWorkers(1)
	}
}

// observe is the benchmark's own delivery check, run in every pass.
func (p *pass) observe(pk *network.Packet) {
	sx, _ := p.in.Topo.Coord(pk.Src)
	dx, _ := p.in.Topo.Coord(pk.Dst)
	if (sx < p.midX) != (dx < p.midX) {
		p.crossed += int64(pk.Length)
	}
	if !p.tracking {
		return
	}
	k := sort.Search(len(p.winStart), func(k int) bool { return p.winStart[k] > pk.CreatedAt }) - 1
	if k >= 0 {
		p.winLast[k] = max(p.winLast[k], pk.ArrivedAt)
	}
}

func (p *pass) snapshot() counts {
	net := p.in.Net
	c := counts{
		Cycles:     net.Now,
		VAFailures: int64(net.VAFailures),
		Injected:   net.PacketsInjected(),
		Delivered:  net.PacketsDelivered(),
		// QueuedPackets includes each source's packet mid-injection, which
		// PacketsInjected counts too: off by at most one packet per node.
		Offered: net.PacketsInjected() + int64(net.QueuedPackets()),
	}
	for k, g := range net.GrantsByKind {
		c.Grants += int64(g)
		switch network.LinkKind(k) {
		case network.KindParallel, network.KindSerial, network.KindHeteroPHY:
			c.IfaceGrants += int64(g)
		}
	}
	for _, a := range p.in.Topo.Adapters {
		c.ParallelFlits += int64(a.ParallelFlits())
		c.SerialFlits += int64(a.SerialFlits())
	}
	c.Msgs, c.CommCycles, c.StallCycles, c.Elapsed = p.coll.Msgs, p.coll.CommCycles, p.coll.StallCycles, p.coll.Elapsed
	return c
}

// run executes the pass. An error means the pass could not be set up;
// failed operations are recorded in p.failures instead.
func (p *pass) run() error {
	if err := p.setup(); err != nil {
		return err
	}
	defer p.stop()
	net := p.in.Net
	var (
		timedStart time.Time
		blockStart int64
		base       counts
		mem        runtime.MemStats
		cpu0       time.Duration
	)
	for i := 0; len(p.failures) == 0; i++ {
		j := i - p.w.warmup // timed window index
		if j >= p.w.block && since(timedStart) >= p.seconds {
			break
		}
		if j == 0 {
			runtime.GC()
			p.in.Stats.Reset()
			p.in.Stats.Warmup = net.Now
			blockStart = net.Now
			base = p.snapshot()
			p.tracking = !p.w.closed
			runtime.ReadMemStats(&mem)
			cpu0 = cpuTime()
			timedStart = time.Now()
		}
		p.window(i, j >= 0)
		if j < 0 || len(p.failures) > 0 {
			continue
		}
		if j+1 == p.w.block {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			p.first = p.snapshot().minus(base)
			p.allocBytes = float64(m.TotalAlloc-mem.TotalAlloc) / float64(p.first.Cycles)
			p.gcCount = float64(m.NumGC - mem.NumGC)
			t0 := time.Now()
			r := p.in.Measure(p.w.spec.System.String(), p.w.name, 0)
			if p.t != nil {
				p.t.measure = since(t0)
			}
			p.endFirstBlock(r, blockStart)
		}
		if j+1 >= p.w.block {
			// Past the first block the collector's data is not reported;
			// clearing it keeps memory from growing with the run length.
			p.in.Stats.Reset()
		}
	}
	if len(p.samples) > 0 {
		wall := since(timedStart)
		p.cpuPerWall = (cpuTime() - cpu0).Seconds() / wall
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		p.heapMB = float64(m.HeapAlloc) / (1 << 20)
	}
	if len(p.failures) == 0 {
		p.drainCheck()
	}
	return nil
}

// window runs and checks window i.
func (p *pass) window(i int, timed bool) {
	net := p.in.Net
	p.drv.prepare(i)
	before := p.snapshot()
	inFlight := net.InFlightFlits()
	first := timed && p.tracking && len(p.winStart) < p.w.block
	if first {
		p.winStart = append(p.winStart, net.Now)
		p.winLast = append(p.winLast, -1)
	}
	p.crossed = 0
	t0 := time.Now()
	c0 := cpuTime()
	err := p.drv.run()
	cpu := cpuTime() - c0
	dt := time.Since(t0)
	p.attempted++
	if d, ok := p.drv.(*dnnDriver); ok && err == nil {
		rep := d.rep
		p.coll.Msgs += int64(rep.Msgs)
		p.coll.CommCycles += rep.CommCycles
		p.coll.StallCycles += rep.StallCycles
		p.coll.Elapsed += rep.Elapsed
	}
	after := p.snapshot()
	if timed {
		p.samples = append(p.samples, sample{seconds: cpu.Seconds(), wall: dt.Seconds(), cycles: after.Cycles - before.Cycles, grants: after.Grants - before.Grants})
	}
	if err == nil {
		err = net.CheckCredits()
	}
	if limit := p.bisection*(after.Cycles-before.Cycles) + inFlight; err == nil && p.crossed > limit {
		err = fmt.Errorf("%d flits crossed the bisection, above its bound of %d", p.crossed, limit)
	}
	if err == nil {
		err = p.drv.check()
	}
	if err != nil {
		p.fail("window %d: %v", i, err)
	}
	if p.t != nil {
		p.t.endWindow(i, timed, t0, dt)
	}
}

// endFirstBlock computes the sim_* metrics from the first block.
func (p *pass) endFirstBlock(r experiments.Result, blockStart int64) {
	net := p.in.Net
	p.sim = simMetrics{
		LatencyMean: r.MeanLatency,
		LatencyP99:  float64(r.P99Latency),
		Accepted:    p.in.Stats.Throughput(net.Now-blockStart, p.in.Topo.N),
		EnergyPJ:    r.EnergyPJ,
	}
	for _, a := range p.in.Topo.Adapters {
		p.maxQueue = max(p.maxQueue, a.MaxQueue())
		p.maxROB = max(p.maxROB, a.MaxROBOccupancy())
	}
	if p.w.closed {
		// Closed loop: every window is one iteration.
		p.sim.Completion = float64(p.first.Elapsed) / float64(p.w.block)
		return
	}
	// Open loop: a window's traffic completes with its last delivery. The
	// last window's traffic may still be in flight, so it is left out; the
	// others have had at least one more window to finish.
	p.tracking = false
	var sum int64
	for k := 0; k < len(p.winStart)-1; k++ {
		if p.winLast[k] >= 0 {
			sum += p.winLast[k] - p.winStart[k]
		}
	}
	p.sim.Completion = float64(sum) / float64(len(p.winStart)-1)
}

// drainCheck stops injection, drains the network and checks that every
// injected packet arrived and credits balance.
func (p *pass) drainCheck() {
	net := p.in.Net
	ok, err := net.Drain()
	switch {
	case err != nil:
		p.fail("drain: %v", err)
	case !ok:
		p.fail("drain: network did not drain within %d cycles", net.Cfg.DrainCycles)
	case net.PacketsInjected() != net.PacketsDelivered():
		p.fail("drain: %d packets injected, %d delivered", net.PacketsInjected(), net.PacketsDelivered())
	default:
		if err := net.CheckCredits(); err != nil {
			p.fail("drain: %v", err)
		}
	}
}

// cpuTime is the CPU time of every thread of the process, read from
// CLOCK_PROCESS_CPUTIME_ID. Unlike wall time it leaves out the time the
// hypervisor gave the machine's virtual CPUs to other guests (steal).
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// clockProcessCPUTimeID is CLOCK_PROCESS_CPUTIME_ID from <time.h>.
const clockProcessCPUTimeID = 2

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
