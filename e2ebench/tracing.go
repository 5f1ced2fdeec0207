package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"heteroif/internal/core"
	"heteroif/internal/network"
)

// layer is the repository module a wrapped entry point belongs to.
type layer int

const (
	layerRouting layer = iota
	layerCore
	layerTraffic
	layerTrace
	layerCollective
	layerStats
	numLayers
)

var layerNames = [numLayers]string{"routing", "core", "traffic", "trace", "collective", "stats"}

// seam is one public entry point the traced pass wraps.
type seam int

const (
	seamRoute    seam = iota // Network.Routing.Route
	seamDispatch             // core.Policy.Dispatch
	seamDrive                // the workload driver's Drive
	seamNext                 // the workload driver's NextInjection
	seamSink                 // Network.Sink (the stats collector)
	seamDeliver              // Network.OnDeliver (the collective engine)
	numSeams
)

// windowCounters aggregates the wrapped calls of one window. Route and
// Dispatch run on the stepping workers under parallel stepping, so their
// counters are updated atomically and their busy time is summed across
// workers; every other seam runs on the goroutine that calls RunWith.
type windowCounters struct {
	timed    bool
	dur      time.Duration
	calls    [numSeams]int64
	busy     [numSeams]int64 // nanoseconds
	inFlight int64           // Σ InFlightFlits sampled at every Drive call
	srcWait  int64           // Σ InjectedAt−CreatedAt over delivered packets
	records  int64           // trace records replayed
}

// self is the window time spent outside every wrapped callee: the cycle
// engine's own work.
func (w *windowCounters) self() time.Duration {
	d := w.dur
	for _, b := range w.busy {
		d -= time.Duration(b)
	}
	return d
}

// span is one layer's share of one window. The root span of a window is
// the network layer; its children are the wrapped layers, whose busy time
// is the summed duration of their calls.
type span struct {
	Window  int    `json:"window"`
	Timed   bool   `json:"timed"`
	Layer   string `json:"layer"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns,omitempty"`
	EndNS   int64  `json:"end_ns,omitempty"`
	BusyNS  int64  `json:"busy_ns"`
	SelfNS  int64  `json:"self_ns"`
	Calls   int64  `json:"calls,omitempty"`
}

// tracer times the calls the traced pass makes into each layer through
// the public seams, and keeps one span per window per layer in memory.
type tracer struct {
	origin      time.Time
	driverLayer layer
	win         windowCounters
	windows     []windowCounters
	spans       []span

	builds, prepares []float64 // seconds per setup
	measure          float64   // seconds in Instance.Measure for the first block
	setupRouteCalls  int64     // Route calls made by the first Step (route LUT)
	generate         float64   // input synthesis seconds
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) layerOf(s seam) layer {
	switch s {
	case seamRoute:
		return layerRouting
	case seamDispatch:
		return layerCore
	case seamSink:
		return layerStats
	case seamDeliver:
		return layerCollective
	}
	return t.driverLayer
}

// resetWindow discards the counters gathered so far (set-up calls).
func (t *tracer) resetWindow() { t.win = windowCounters{} }

// endWindow closes window i, which started at start and took dur.
func (t *tracer) endWindow(i int, timed bool, start time.Time, dur time.Duration) {
	w := t.win
	w.timed, w.dur = timed, dur
	t.windows = append(t.windows, w)
	t.resetWindow()
	t.spans = append(t.spans, span{
		Window: i, Timed: timed, Layer: "network",
		StartNS: start.Sub(t.origin).Nanoseconds(),
		EndNS:   start.Add(dur).Sub(t.origin).Nanoseconds(),
		BusyNS:  dur.Nanoseconds(), SelfNS: w.self().Nanoseconds(),
	})
	var busy [numLayers]int64
	var calls [numLayers]int64
	for s := seam(0); s < numSeams; s++ {
		busy[t.layerOf(s)] += w.busy[s]
		calls[t.layerOf(s)] += w.calls[s]
	}
	for l := layer(0); l < numLayers; l++ {
		if calls[l] > 0 {
			t.spans = append(t.spans, span{Window: i, Timed: timed, Layer: layerNames[l], Parent: "network",
				BusyNS: busy[l], SelfNS: busy[l], Calls: calls[l]})
		}
	}
}

// write saves the spans with the run's provenance as one JSON document.
func (t *tracer) write(path string, prov provenance, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Workload   string     `json:"workload"`
		Seed       int64      `json:"seed"`
		Spans      []span     `json:"spans"`
	}{prov, workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// wrapDrive wraps a workload driver's Drive, whose calls belong to layer l,
// and samples the flits in flight at every call (once per Step).
func (t *tracer) wrapDrive(l layer, net *network.Network, f func(int64)) func(int64) {
	t.driverLayer = l
	return func(now int64) {
		t.win.inFlight += net.InFlightFlits()
		t0 := time.Now()
		f(now)
		t.win.busy[seamDrive] += int64(time.Since(t0))
		t.win.calls[seamDrive]++
	}
}

// wrapNext wraps a workload driver's NextInjection, whose calls belong to
// layer l.
func (t *tracer) wrapNext(l layer, f func(int64) int64) func(int64) int64 {
	t.driverLayer = l
	return func(now int64) int64 {
		t0 := time.Now()
		next := f(now)
		t.win.busy[seamNext] += int64(time.Since(t0))
		t.win.calls[seamNext]++
		return next
	}
}

// wrapSink wraps the statistics sink and sums source-queue waits.
func (t *tracer) wrapSink(f func(*network.Packet)) func(*network.Packet) {
	return func(p *network.Packet) {
		t.win.srcWait += p.InjectedAt - p.CreatedAt
		t0 := time.Now()
		f(p)
		t.win.busy[seamSink] += int64(time.Since(t0))
		t.win.calls[seamSink]++
	}
}

// wrapDeliver wraps the collective engine's delivery observer.
func (t *tracer) wrapDeliver(f func(*network.Packet)) func(*network.Packet) {
	return func(p *network.Packet) {
		t0 := time.Now()
		f(p)
		t.win.busy[seamDeliver] += int64(time.Since(t0))
		t.win.calls[seamDeliver]++
	}
}

// tracedRouting wraps a routing algorithm. It forwards Stability, so the
// engine picks the same route-LUT and memoization paths as untraced.
type tracedRouting struct {
	inner network.Routing
	t     *tracer
}

func (r *tracedRouting) Route(net *network.Network, rt *network.Router, inPort int, pkt *network.Packet, buf []network.Candidate) []network.Candidate {
	t0 := time.Now()
	buf = r.inner.Route(net, rt, inPort, pkt, buf)
	atomic.AddInt64(&r.t.win.busy[seamRoute], int64(time.Since(t0)))
	atomic.AddInt64(&r.t.win.calls[seamRoute], 1)
	return buf
}

func (r *tracedRouting) Name() string { return r.inner.Name() }

func (r *tracedRouting) Stability() network.RouteStability {
	if s, ok := r.inner.(network.Stable); ok {
		return s.Stability()
	}
	return network.RouteDynamic
}

// tracedPolicy wraps a hetero-PHY scheduling policy.
type tracedPolicy struct {
	inner core.Policy
	t     *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Dispatch(st core.State, f network.Flit) (core.PHY, bool) {
	t0 := time.Now()
	phy, ok := p.inner.Dispatch(st, f)
	atomic.AddInt64(&p.t.win.busy[seamDispatch], int64(time.Since(t0)))
	atomic.AddInt64(&p.t.win.calls[seamDispatch], 1)
	return phy, ok
}
