// Command e2ebench is the repository's end-to-end benchmark. It runs one
// of five workloads on the paper's systems through the simulator's public
// entry points, checks every window for correctness, and prints one JSON
// object as its last line of output: with -trace 0 the end-to-end metrics
// (host time and simulated results), with -trace 1 the per-layer metrics
// of a traced pass. See README.md for the workloads and metrics.
//
//	go run . -workload synth-phy256 -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef is one metric's name and unit, as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"window_ms_p90", "ms"},
	{"flit_hops_per_s", "flits/s"},
	{"live_heap_mb", "MB"},
	{"sim_latency_mean_cycles", "cycles"},
	{"sim_latency_p99_cycles", "cycles"},
	{"sim_accepted_flits_per_node_cycle", "flit/node/cycle"},
	{"sim_energy_pj_per_pkt", "pJ"},
	{"collective_completion_cycles", "cycles"},
}

var perLayer = []metricDef{
	{"experiments.build_s", "s"},
	{"routing.route_calls", "count"},
	{"routing.route_s", "s"},
	{"routing.setup_route_calls", "count"},
	{"network.prepare_s", "s"},
	{"network.self_s", "s"},
	{"network.window_ms_p50", "ms"},
	{"network.steps", "count"},
	{"network.skipped_cycles", "cycles"},
	{"network.ff_skip_ratio", "ratio"},
	{"network.flit_hops", "count"},
	{"network.iface_hops", "count"},
	{"network.va_failures", "count"},
	{"network.va_failures_per_kflit", "count/kflit"},
	{"network.source_wait_cycles_mean", "cycles"},
	{"network.in_flight_flits_mean", "flits"},
	{"network.alloc_bytes_per_cycle", "B/cycle"},
	{"network.gc_count", "count"},
	{"network.cpu_per_wall", "ratio"},
	{"network.wall_cycles_per_s", "cycles/s"},
	{"core.dispatch_calls", "count"},
	{"core.dispatch_s", "s"},
	{"core.parallel_flits", "count"},
	{"core.serial_flits", "count"},
	{"core.serial_share", "ratio"},
	{"core.max_queue", "flits"},
	{"core.max_rob_occupancy", "flits"},
	{"traffic.drive_calls", "count"},
	{"traffic.drive_s", "s"},
	{"traffic.packets_offered", "count"},
	{"trace.generate_s", "s"},
	{"trace.drive_calls", "count"},
	{"trace.drive_s", "s"},
	{"trace.next_calls", "count"},
	{"trace.records", "count"},
	{"collective.drive_s", "s"},
	{"collective.next_calls", "count"},
	{"collective.deliver_calls", "count"},
	{"collective.deliver_s", "s"},
	{"collective.msgs", "count"},
	{"collective.comm_cycles", "cycles"},
	{"collective.stall_cycles", "cycles"},
	{"stats.record_calls", "count"},
	{"stats.sink_s", "s"},
	{"stats.measure_s", "s"},
	{"tracing.overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spans    string // where a traced run writes its spans
	tiny     bool   // test-scale systems
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "file for the traced run's spans (default .bench_build/spans-WORKLOAD-SEED.json)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.traced = trace == 1
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans-%s-%d.json", o.workload, o.seed)
	}
	res, notes, err := benchmark(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// benchmark runs one workload and returns its result plus human-readable
// notes (provenance, sample counts, failures) to print before it.
func benchmark(o options) (result, []string, error) {
	if o.seconds <= 0 {
		return result{}, nil, errors.New("-seconds must be positive")
	}
	w, err := newWorkload(o.workload, o.tiny)
	if err != nil {
		return result{}, nil, err
	}
	prov := hostProvenance()
	provJSON, _ := json.Marshal(prov) // a struct of strings and ints always marshals
	notes := []string{"provenance " + string(provJSON)}

	t0 := time.Now()
	inp, err := w.inputs(w, o.seed)
	if err != nil {
		return result{}, nil, err
	}
	generate := since(t0)

	if !o.traced {
		p := &pass{w: w, inp: inp, seed: o.seed, seconds: o.seconds}
		if err := p.run(); err != nil {
			return result{}, nil, err
		}
		notes = append(notes, p.summary())
		return finish(p.attempted, p.failures, endToEndValues(p), endToEnd), append(notes, p.failures...), nil
	}

	// The traced run measures an untraced pass and a traced pass of equal
	// budgets back to back: the first is the reference the second's
	// overhead and model results are checked against.
	plain := &pass{w: w, inp: inp, seed: o.seed, seconds: o.seconds / 2}
	if err := plain.run(); err != nil {
		return result{}, nil, err
	}
	traced := &pass{w: w, inp: inp, seed: o.seed, seconds: o.seconds / 2, t: newTracer()}
	traced.t.generate = generate
	if err := traced.run(); err != nil {
		return result{}, nil, err
	}
	failures := append(append([]string(nil), plain.failures...), traced.failures...)
	if len(failures) == 0 {
		if plain.sim != traced.sim {
			failures = append(failures, fmt.Sprintf("traced sim metrics %+v differ from untraced %+v", traced.sim, plain.sim))
		}
		if plain.first != traced.first {
			failures = append(failures, fmt.Sprintf("traced counts %+v differ from untraced %+v", traced.first, plain.first))
		}
	}
	if err := traced.t.write(o.spans, prov, w.name, o.seed); err != nil {
		return result{}, nil, fmt.Errorf("write spans: %w", err)
	}
	notes = append(notes, "untraced "+plain.summary(), "traced "+traced.summary(), "spans written to "+o.spans)
	vals := layerValues(plain, traced)
	return finish(plain.attempted+traced.attempted, failures, vals, perLayer), append(notes, failures...), nil
}

// finish assembles the result. A value that is not a finite number makes
// the result incorrect.
func finish(attempted int, failures []string, vals map[string]float64, defs []metricDef) result {
	res := result{Attempted: attempted, Failed: len(failures), Metrics: map[string]metric{}}
	finite := true
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite, v = false, 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = finite && len(failures) == 0 && attempted > 0
	return res
}

// summary describes a pass's samples.
func (p *pass) summary() string {
	ms := p.windowMS()
	return fmt.Sprintf("%s seed %d: %d windows attempted, %d failed; window_ms p2=%.3f p50=%.3f p90=%.3f over %d timed windows; setup_s median of %d",
		p.w.name, p.seed, p.attempted, len(p.failures), quantile(ms, 0.02), quantile(ms, 0.5), quantile(ms, 0.9), len(ms), len(p.setups))
}

func (p *pass) windowMS() []float64 {
	ms := make([]float64, len(p.samples))
	for i, s := range p.samples {
		ms[i] = s.seconds * 1000
	}
	return ms
}

// slowQuantile is the window-time quantile the host-time metrics read.
// Window time is process CPU time, so the stretches in which the host
// takes the virtual CPUs away drop out. Co-tenants still slow the CPU
// itself (shared cores and caches) for stretches of a run and leave others
// quiet; how much of a run is quiet changes from run to run, so the median
// window moves with it, while the contended level at the slow end does not.
const slowQuantile = 0.9

// rate is the work per CPU second that all but the slowest tenth of timed
// windows reach.
func (p *pass) rate(work func(sample) int64) float64 {
	r := make([]float64, len(p.samples))
	for i, s := range p.samples {
		r[i] = float64(work(s)) / s.seconds
	}
	return quantile(r, 1-slowQuantile)
}

func (p *pass) cyclesPerSecond() float64 {
	return p.rate(func(s sample) int64 { return s.cycles })
}

// wallCyclesPerSecond is the median of per-window simulated cycles per
// wall second: the rate parallel stepping is meant to raise, which CPU
// time does not show. Wall time includes the host's steal time, so it is
// reported per layer only.
func (p *pass) wallCyclesPerSecond() float64 {
	r := make([]float64, len(p.samples))
	for i, s := range p.samples {
		r[i] = float64(s.cycles) / s.wall
	}
	return quantile(r, 0.5)
}

func endToEndValues(p *pass) map[string]float64 {
	return map[string]float64{
		"setup_s":                           quantile(p.setups, 0.5),
		"sim_cycles_per_s":                  p.cyclesPerSecond(),
		"window_ms_p90":                     quantile(p.windowMS(), slowQuantile),
		"flit_hops_per_s":                   p.rate(func(s sample) int64 { return s.grants }),
		"live_heap_mb":                      p.heapMB,
		"sim_latency_mean_cycles":           p.sim.LatencyMean,
		"sim_latency_p99_cycles":            p.sim.LatencyP99,
		"sim_accepted_flits_per_node_cycle": p.sim.Accepted,
		"sim_energy_pj_per_pkt":             p.sim.EnergyPJ,
		"collective_completion_cycles":      p.sim.Completion,
	}
}

// layerValues computes the per-layer metrics. Counts are per window,
// averaged over the first block (they repeat exactly for a seed); times
// are per-window medians over every timed window of the traced pass; the
// window-time percentiles and runtime metrics come from the untraced pass.
func layerValues(plain, traced *pass) map[string]float64 {
	t := traced.t
	var timed []windowCounters
	for _, w := range t.windows {
		if w.timed {
			timed = append(timed, w)
		}
	}
	block := timed[:min(traced.w.block, len(timed))]
	n := float64(len(block))
	var sum windowCounters
	for _, w := range block {
		for s := range w.calls {
			sum.calls[s] += w.calls[s]
		}
		sum.inFlight += w.inFlight
		sum.srcWait += w.srcWait
		sum.records += w.records
	}
	calls := func(s seam) float64 { return float64(sum.calls[s]) / n }
	busy := func(seams ...seam) float64 {
		v := make([]float64, len(timed))
		for i, w := range timed {
			for _, s := range seams {
				v[i] += float64(w.busy[s]) / 1e9
			}
		}
		return quantile(v, 0.5)
	}
	self := make([]float64, len(timed))
	for i := range timed {
		self[i] = timed[i].self().Seconds()
	}
	f := traced.first
	perWindow := func(c int64) float64 { return float64(c) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{
		"experiments.build_s":             quantile(t.builds, 0.5),
		"routing.route_calls":             calls(seamRoute),
		"routing.route_s":                 busy(seamRoute),
		"routing.setup_route_calls":       float64(t.setupRouteCalls),
		"network.prepare_s":               quantile(t.prepares, 0.5),
		"network.self_s":                  quantile(self, 0.5),
		"network.window_ms_p50":           quantile(plain.windowMS(), 0.5),
		"network.steps":                   calls(seamDrive),
		"network.skipped_cycles":          perWindow(f.Cycles) - calls(seamDrive),
		"network.ff_skip_ratio":           ratio(perWindow(f.Cycles)-calls(seamDrive), perWindow(f.Cycles)),
		"network.flit_hops":               perWindow(f.Grants),
		"network.iface_hops":              perWindow(f.IfaceGrants),
		"network.va_failures":             perWindow(f.VAFailures),
		"network.va_failures_per_kflit":   ratio(float64(f.VAFailures), float64(f.Grants)/1000),
		"network.source_wait_cycles_mean": ratio(float64(sum.srcWait), float64(sum.calls[seamSink])),
		"network.in_flight_flits_mean":    ratio(float64(sum.inFlight), float64(sum.calls[seamDrive])),
		"network.alloc_bytes_per_cycle":   plain.allocBytes,
		"network.gc_count":                plain.gcCount,
		"network.cpu_per_wall":            plain.cpuPerWall,
		"network.wall_cycles_per_s":       plain.wallCyclesPerSecond(),
		"core.dispatch_calls":             calls(seamDispatch),
		"core.dispatch_s":                 busy(seamDispatch),
		"core.parallel_flits":             perWindow(f.ParallelFlits),
		"core.serial_flits":               perWindow(f.SerialFlits),
		"core.serial_share":               ratio(float64(f.SerialFlits), float64(f.ParallelFlits+f.SerialFlits)),
		"core.max_queue":                  float64(traced.maxQueue),
		"core.max_rob_occupancy":          float64(traced.maxROB),
		"stats.record_calls":              calls(seamSink),
		"stats.sink_s":                    busy(seamSink),
		"stats.measure_s":                 t.measure,
		"tracing.overhead_ratio":          1 - traced.cyclesPerSecond()/plain.cyclesPerSecond(),
	}
	switch t.driverLayer {
	case layerTraffic:
		v["traffic.drive_calls"] = calls(seamDrive)
		v["traffic.drive_s"] = busy(seamDrive)
		v["traffic.packets_offered"] = perWindow(f.Offered)
	case layerTrace:
		v["trace.generate_s"] = t.generate
		v["trace.drive_calls"] = calls(seamDrive)
		v["trace.drive_s"] = busy(seamDrive, seamNext)
		v["trace.next_calls"] = calls(seamNext)
		v["trace.records"] = perWindow(sum.records)
	case layerCollective:
		v["collective.drive_s"] = busy(seamDrive, seamNext)
		v["collective.next_calls"] = calls(seamNext)
		v["collective.deliver_calls"] = calls(seamDeliver)
		v["collective.deliver_s"] = busy(seamDeliver)
		v["collective.msgs"] = perWindow(f.Msgs)
		v["collective.comm_cycles"] = perWindow(f.CommCycles)
		v["collective.stall_cycles"] = perWindow(f.StallCycles)
	}
	return v
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
