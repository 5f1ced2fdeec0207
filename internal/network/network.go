package network

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
)

// Network is a complete multi-chiplet interconnection system: routers,
// links, a routing algorithm, per-node injection sources and the
// synchronous cycle engine.
//
// Each cycle proceeds in three phases (see DESIGN.md):
//  1. every busy link advances one stage, delivering flits into downstream
//     input buffers and completing credit round trips;
//  2. every busy router performs RC/VA/SA and pushes granted flits into
//     link stage 0 (invisible downstream until the link delay elapses, so
//     router iteration order is immaterial);
//  3. injection sources feed the local ports.
type Network struct {
	Cfg     Config
	Nodes   []*Router
	Links   []*Link
	Routing Routing
	Rand    *rand.Rand

	// Now is the current cycle.
	Now int64

	// Sink is invoked when a packet's tail flit is ejected. Statistics
	// collectors hook in here. Delivered packets are recycled through a
	// free list (NewPacket reuses them), so the *Packet is valid only
	// during the call: copy the fields you need, never retain the pointer.
	Sink func(*Packet)

	// OnDeliver, when non-nil, is invoked after Sink for every delivered
	// packet, in the same deterministic ejection order (ascending
	// destination node within a cycle; coordinator merge order under
	// parallel stepping). Closed-loop workload drivers
	// (internal/collective) observe deliveries here without displacing the
	// statistics sink. As with Sink, the *Packet is valid only during the
	// call.
	OnDeliver func(*Packet)

	sources []source

	// Wake state (see the package comment in flit.go): per-cycle work is
	// found here instead of by scanning every component. nodeWake/srcWake
	// are bitmaps over node indices — bitmap scans yield ascending order,
	// which Sink-order determinism requires. fwdWake/crWake list links with
	// non-empty forward/credit pipelines (membership mirrored by
	// Link.fwdQueued/crQueued); parallel mode keeps these per shard inside
	// parallelState instead.
	nodeWake []uint64
	srcWake  []uint64
	fwdWake  []int32
	crWake   []int32

	pktFree []*Packet

	nextPktID  uint64
	flitsIn    int64 // flits injected into the network
	flitsOut   int64 // flits ejected
	pktsIn     int64
	pktsOut    int64
	moved      uint64 // flit movements this cycle (watchdog)
	idleStreak int64

	// DeadlockAt records the cycle at which the watchdog fired, or -1.
	DeadlockAt int64

	deliverFns []func(Flit)

	par        *parallelState
	seqScratch workerScratch

	// Route-acceleration state, derived on the first Step (after topology
	// construction and any fault injection) from the routing algorithm's
	// declared RouteStability: stability gates the per-VC candidate
	// memoization in Router.allocate, lut (non-nil only for RoutePure
	// algorithms on networks within Cfg.RouteLUTNodes) replaces Route
	// calls entirely. refTick selects the retained naive reference tick
	// for the bit-identity oracle.
	stability RouteStability
	lut       *routeLUT
	prepared  bool
	refTick   bool

	// LivelockHopBound restricts a packet to the escape subnetwork once it
	// has taken this many hops (0 = disabled). Minimal-path adaptive
	// routing never comes close; the bound matters only when faults or
	// stale distance heuristics would otherwise let a packet wander (the
	// "time-out packets" rule of Sec. 5.3.2 applied to routing).
	LivelockHopBound int

	// GrantsByKind counts switch-allocation grants (flits) by output
	// channel kind, a cheap utilization probe for diagnostics.
	GrantsByKind [8]uint64
	// VAFailures counts cycles an input VC held a routable head flit but
	// could not obtain any output VC.
	VAFailures uint64
}

// source is a per-node injection queue: packets wait here (unbounded — the
// source-queueing delay is part of measured latency) until the injection
// port accepts their flits.
type source struct {
	q      []*Packet
	head   int
	cur    *Packet
	curSeq int32
	curVC  VCID
}

// New creates an empty network with the given configuration. Topology
// builders add nodes and links, then attach a routing algorithm.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{
		Cfg:        cfg,
		Rand:       rand.New(rand.NewSource(cfg.Seed)),
		DeadlockAt: -1,
	}, nil
}

// AddNodes creates n routers with local ports and their injection sources.
func (net *Network) AddNodes(n int) {
	for i := 0; i < n; i++ {
		net.Nodes = append(net.Nodes, newRouter(&net.Cfg, NodeID(len(net.Nodes))))
	}
	net.sources = make([]source, len(net.Nodes))
}

// Connect wires a unidirectional link of the given kind from node a to node
// b and returns it. Hetero-PHY adapters are attached by the caller
// afterwards via SetAdapter.
func (net *Network) Connect(kind LinkKind, a, b NodeID) *Link {
	l := NewLink(&net.Cfg, len(net.Links), kind, a, 0, b, 0)
	l.SrcPort = net.Nodes[a].AddOutPort(&net.Cfg, l)
	l.DstPort = net.Nodes[b].AddInPort(&net.Cfg, l)
	net.Links = append(net.Links, l)
	return l
}

// SetAdapter attaches a hetero-PHY adapter to a link and reinitializes the
// source router's credit view for the link's (unchanged) buffer depth.
func (net *Network) SetAdapter(l *Link, a Adapter) {
	l.Adapter = a
	if l.srcOut != nil {
		l.srcOut.slow = !l.direct && (l.Adapter != nil || l.retry != nil)
	}
}

// Finalize must be called after topology construction and before the first
// Step: it packs the per-router port/VC/ring state into per-network slabs,
// pre-binds the per-link delivery closures and builds the wake state.
func (net *Network) Finalize() {
	net.packSlabs()
	net.deliverFns = make([]func(Flit), len(net.Links))
	for i, l := range net.Links {
		dst := net.Nodes[l.Dst]
		port := l.DstPort
		wi, bit := uint(l.Dst)>>6, uint64(1)<<(uint(l.Dst)&63)
		net.deliverFns[i] = func(f Flit) {
			dst.deliver(port, f)
			net.nodeWake[wi] |= bit
			net.moved++
		}
		// Bind the credit-completion targets directly: creditArrivals
		// applies a link's whole per-cycle credit batch to the source
		// router's counters without a per-run closure call.
		l.srcRouter = net.Nodes[l.Src]
		l.srcOut = l.srcRouter.Out[l.SrcPort]
	}
	// Arm direct staging on plain Delay-1 links: their flits can be
	// written into the destination rings at acceptance and published a
	// cycle later, skipping the pipe-stage copy (see Link.direct).
	// EnableRetry disarms a link again; adapter and multi-cycle links keep
	// the pipeline.
	for _, l := range net.Links {
		if len(l.staged) != 0 {
			// Re-finalize with flits staged: keep the armed state, but
			// re-point dstIn at the port's new slab home (packSlabs moved it;
			// the ring contents, cursors included, were copied verbatim).
			l.dstIn = net.Nodes[l.Dst].In[l.DstPort]
			continue
		}
		l.direct = l.Adapter == nil && l.retry == nil && l.Delay == 1 && l.inFlight == 0
		if l.direct {
			l.dstIn = net.Nodes[l.Dst].In[l.DstPort]
			for v := range l.dstIn.VCs {
				l.dstIn.VCs[v].Buf.syncStage()
			}
		}
		l.srcOut.slow = !l.direct && (l.Adapter != nil || l.retry != nil)
	}
	net.rebuildWake()
}

// packSlabs re-homes every router's input/output ports, VC states, flit
// rings and credit arrays into contiguous per-network slabs, in (router,
// port, VC) order — the structure-of-arrays layout behind the saturated
// hot path. Topology builders still create ports as individual heap
// objects, but without flit rings: every ring is first allocated here, in
// the flit slab, so a build does not allocate its largest structure twice.
// Finalize migrates the ports here, copying all live state verbatim (ring
// contents and staging cursors included, so a re-Finalize mid-run is
// safe). Every pointer into the old homes is rebound afterwards: Finalize
// re-binds the link closures and dstIn/srcOut, rebuildWork the flat slot
// tables. The slabs are reachable only through the routers' port slices,
// so repacking leaks nothing.
//
// Ownership under parallel stepping is unchanged by the merged backing
// arrays: a shard's routers own disjoint index ranges of every slab
// (shards are contiguous node ranges), and the single-producer staging
// regions of direct links stay confined to their ring's slice window.
func (net *Network) packSlabs() {
	nIn, nOut, nVC, nFlit, nCred := 0, 0, 0, 0, 0
	for _, r := range net.Nodes {
		nIn += len(r.In)
		nOut += len(r.Out)
		for _, in := range r.In {
			nVC += len(in.VCs)
			nFlit += len(in.VCs) * int(in.depth)
		}
		for _, out := range r.Out {
			nCred += len(out.Credits)
		}
	}
	inSlab := make([]InPort, nIn)
	outSlab := make([]OutPort, nOut)
	vcSlab := make([]VCState, nVC)
	flitSlab := make([]Flit, nFlit)
	credSlab := make([]int, nCred)
	heldSlab := make([]bool, nCred)
	waitSlab := make([]int32, nCred)
	iIn, iOut, iVC, iFlit, iCred := 0, 0, 0, 0, 0
	for _, r := range net.Nodes {
		for pi, in := range r.In {
			p := &inSlab[iIn]
			iIn++
			*p = *in
			p.VCs = vcSlab[iVC : iVC+len(in.VCs)]
			iVC += len(in.VCs)
			for v := range in.VCs {
				vc := &p.VCs[v]
				*vc = in.VCs[v]
				depth := int(in.depth)
				ring := flitSlab[iFlit : iFlit+depth]
				iFlit += depth
				copy(ring, vc.Buf.buf)
				vc.Buf.buf = ring
			}
			r.In[pi] = p
		}
		for pi, out := range r.Out {
			p := &outSlab[iOut]
			iOut++
			*p = *out
			ncr := len(out.Credits)
			p.Credits = credSlab[iCred : iCred+ncr]
			copy(p.Credits, out.Credits)
			p.Held = heldSlab[iCred : iCred+ncr]
			copy(p.Held, out.Held)
			// waitSlot and parked are rebuilt by rebuildWork (forgetting
			// parked state is always safe; see its comment).
			p.waitSlot = waitSlab[iCred : iCred+ncr]
			iCred += ncr
			r.Out[pi] = p
		}
	}
}

// wakeNode marks a router as having buffered flits to process.
func (net *Network) wakeNode(id NodeID) {
	net.nodeWake[uint(id)>>6] |= 1 << (uint(id) & 63)
}

// rebuildWake recomputes every wake structure from current component state.
// Finalize and SetWorkers call it after topology or sharding changes; it is
// O(network), never per-cycle.
func (net *Network) rebuildWake() {
	words := (len(net.Nodes) + 63) / 64
	if len(net.nodeWake) != words {
		net.nodeWake = make([]uint64, words)
		net.srcWake = make([]uint64, words)
	}
	for i := range net.nodeWake {
		net.nodeWake[i] = 0
		net.srcWake[i] = 0
	}
	for i, r := range net.Nodes {
		r.rebuildWork()
		if r.buffered > 0 {
			net.wakeNode(NodeID(i))
		}
	}
	for i := range net.sources {
		s := &net.sources[i]
		if s.cur != nil || s.head < len(s.q) {
			net.srcWake[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	net.fwdWake = net.fwdWake[:0]
	net.crWake = net.crWake[:0]
	if p := net.par; p != nil {
		for w := range p.fwdWake {
			p.fwdWake[w] = p.fwdWake[w][:0]
			p.crWake[w] = p.crWake[w][:0]
		}
	}
	for i, l := range net.Links {
		l.fwdQueued = l.fwdBusy()
		l.crQueued = l.creditsInFlight > 0
		if p := net.par; p != nil {
			if l.fwdQueued {
				d := p.linkDstShard[i]
				p.fwdWake[d] = append(p.fwdWake[d], int32(i))
			}
			if l.crQueued {
				s := p.linkSrcShard[i]
				p.crWake[s] = append(p.crWake[s], int32(i))
			}
			continue
		}
		if l.fwdQueued {
			net.fwdWake = append(net.fwdWake, int32(i))
		}
		if l.crQueued {
			net.crWake = append(net.crWake, int32(i))
		}
	}
}

// NewPacket allocates a packet with a fresh ID, reusing a delivered packet
// from the free list when one is available. The caller fills class and
// priority, then Offers it.
func (net *Network) NewPacket(src, dst NodeID, length int, createdAt int64) *Packet {
	net.nextPktID++
	p := (*Packet)(nil)
	if n := len(net.pktFree); n > 0 {
		p = net.pktFree[n-1]
		net.pktFree = net.pktFree[:n-1]
	} else {
		p = new(Packet)
	}
	*p = Packet{
		ID:        net.nextPktID,
		Src:       src,
		Dst:       dst,
		Length:    length,
		CreatedAt: createdAt,
		ArrivedAt: -1,
		Target:    -1,
	}
	return p
}

// Offer appends a packet to its source node's injection queue. Packets must
// be offered with nondecreasing CreatedAt per node.
func (net *Network) Offer(p *Packet) {
	if p.Src == p.Dst {
		panic(fmt.Sprintf("network: packet %d offered with src == dst == %d", p.ID, p.Src))
	}
	s := &net.sources[p.Src]
	s.q = append(s.q, p)
	if net.srcWake != nil {
		net.srcWake[p.Src>>6] |= 1 << (uint(p.Src) & 63)
	}
}

// Step advances the network by one cycle. Work is found through the wake
// state, so per-cycle cost scales with in-flight traffic, not topology
// size; a skipped component is always one whose tick would have been a
// no-op, keeping results bit-identical to exhaustive scanning.
func (net *Network) Step() {
	if !net.prepared {
		net.prepare()
	}
	if net.par != nil {
		net.stepParallel()
		return
	}
	net.moved = 0

	// Phase 1: link arrivals, then credit returns. Only links on the wake
	// lists can hold work. Processing order within a list is immaterial:
	// each link writes disjoint router state (arrivals the Dst input
	// buffers, credits the Src output counters) and the shared movement
	// counter is a commutative sum.
	if len(net.fwdWake) > 0 {
		keep := net.fwdWake[:0]
		for _, li := range net.fwdWake {
			l := net.Links[li]
			net.linkArrivals(l, net.deliverFns[li], &net.moved, false)
			if l.fwdBusy() {
				keep = append(keep, li)
			} else {
				l.fwdQueued = false
			}
		}
		net.fwdWake = keep
	}
	if len(net.crWake) > 0 {
		keep := net.crWake[:0]
		for _, li := range net.crWake {
			l := net.Links[li]
			l.creditArrivals()
			if l.creditsInFlight > 0 {
				keep = append(keep, li)
			} else {
				l.crQueued = false
			}
		}
		net.crWake = keep
	}

	// Phase 2: router pipelines, ascending node order (Sink determinism
	// depends on it — see the package comment).
	sc := &net.seqScratch
	ctx := tickContext{net: net, scratch: sc, reference: net.refTick}
	net.tickNodes(&ctx, 0, len(net.nodeWake))

	// Phase 3: injection, ascending node order.
	net.injectNodes(sc, 0, len(net.srcWake))

	net.mergeScratch(sc)
	net.watchdog()
	net.Now++
}

// linkArrivals advances one link's forward pipeline. Plain pipelines hand
// their whole per-cycle batch to Router.deliverRun in one call (the flits
// of a link all target the same input port, so the per-flit closure only
// re-derived the same router and wake bit once per flit); adapter and
// retry links keep the per-flit path — their Tick interleaves protocol
// work with delivery. deliverFn and moved are the caller's per-flit
// closure and movement accumulator (net.deliverFns/net.moved
// sequentially, the shard-bound twins in parallel mode). atomicWake marks
// the destination's wake word as shared between shards, requiring an
// atomic set (always false sequentially).
func (net *Network) linkArrivals(l *Link, deliverFn func(Flit), moved *uint64, atomicWake bool) {
	if l.Adapter != nil || l.retry != nil {
		l.Arrivals(net.Now, deliverFn)
		return
	}
	if l.direct {
		net.commitDirect(l, moved, atomicWake)
		return
	}
	arr := l.takeArrivals()
	if len(arr) == 0 {
		return
	}
	net.Nodes[l.Dst].deliverRun(l.DstPort, arr)
	net.wakeNodeMode(l.Dst, atomicWake)
	*moved += uint64(len(arr))
}

// wakeNodeMode is wakeNode with an optional atomic set for wake words
// shared between parallel shards.
func (net *Network) wakeNodeMode(id NodeID, atomicOr bool) {
	wi, bit := uint(id)>>6, uint64(1)<<(uint(id)&63)
	if atomicOr {
		atomic.OrUint64(&net.nodeWake[wi], bit)
	} else {
		net.nodeWake[wi] |= bit
	}
}

// commitDirect publishes a direct link's staged flits: they already sit in
// the destination rings (written at acceptance, see Link.direct), so
// arrival is O(runs) — bump each ring's published length, mark newly
// pending slots and account the batch, with no flit copies. Runs on the
// destination router's shard in the link phase, after the barrier that
// quiesced the staging producer.
func (net *Network) commitDirect(l *Link, moved *uint64, atomicWake bool) {
	l.accepted = 0
	if len(l.staged) == 0 {
		return
	}
	r := net.Nodes[l.Dst]
	in := l.dstIn
	total := 0
	for _, run := range l.staged {
		vc := &in.VCs[run.vc]
		wasEmpty := vc.Buf.Empty()
		vc.Buf.publish(int(run.n))
		slot := l.DstPort*r.slotVCs + int(run.vc)
		if !vc.Active {
			if wasEmpty {
				vc.cacheHead(vc.Buf.frontRef())
			}
			r.markPend(slot)
		} else {
			r.saReady[slot>>6] |= 1 << (uint(slot) & 63)
		}
		total += int(run.n)
	}
	l.staged = l.staged[:0]
	l.inFlight -= total
	r.buffered += total
	net.wakeNodeMode(l.Dst, atomicWake)
	*moved += uint64(total)
}

// tickNodes runs Phase 2 for the routers woken in nodeWake words
// [wlo, whi), in ascending node order, clearing the bit of any router that
// drained completely.
func (net *Network) tickNodes(ctx *tickContext, wlo, whi int) {
	for wi := wlo; wi < whi; wi++ {
		w := net.nodeWake[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			r := net.Nodes[wi<<6+b]
			r.tickCtx(ctx)
			if r.buffered == 0 {
				net.nodeWake[wi] &^= 1 << uint(b)
			}
		}
	}
}

// injectNodes runs Phase 3 for the sources woken in srcWake words
// [wlo, whi), in ascending node order, clearing the bit of any source whose
// queue emptied.
func (net *Network) injectNodes(sc *workerScratch, wlo, whi int) {
	for wi := wlo; wi < whi; wi++ {
		w := net.srcWake[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			ni := wi<<6 + b
			net.injectNode(ni, sc, false)
			s := &net.sources[ni]
			if s.cur == nil && s.head == len(s.q) {
				net.srcWake[wi] &^= 1 << uint(b)
			}
		}
	}
}

// mergeScratch folds per-phase accumulators into the network counters and
// retires the packets whose tail flits were ejected this cycle: each is
// handed to Sink and OnDeliver, then returned to the free list.
func (net *Network) mergeScratch(sc *workerScratch) {
	net.moved += sc.moved
	net.flitsIn += sc.flitsIn
	net.flitsOut += sc.flitsOut
	net.pktsIn += sc.pktsIn
	net.pktsOut += sc.pktsOut
	net.VAFailures += sc.vaFailures
	for k := range sc.grantsByKind {
		net.GrantsByKind[k] += sc.grantsByKind[k]
	}
	for _, pkt := range sc.finished {
		pkt.ArrivedAt = net.Now
		if net.Sink != nil {
			net.Sink(pkt)
		}
		if net.OnDeliver != nil {
			net.OnDeliver(pkt)
		}
		net.pktFree = append(net.pktFree, pkt)
	}
	// Fold links woken by this shard's routers into the wake lists. A
	// shard's routers may source links of any shard, so distribution runs
	// here on the coordinator, not on the workers.
	if p := net.par; p != nil {
		for _, li := range sc.wokeFwd {
			d := p.linkDstShard[li]
			p.fwdWake[d] = append(p.fwdWake[d], li)
		}
		for _, li := range sc.wokeCr {
			s := p.linkSrcShard[li]
			p.crWake[s] = append(p.crWake[s], li)
		}
	} else {
		net.fwdWake = append(net.fwdWake, sc.wokeFwd...)
		net.crWake = append(net.crWake, sc.wokeCr...)
	}
	*sc = workerScratch{finished: sc.finished[:0], wokeFwd: sc.wokeFwd[:0], wokeCr: sc.wokeCr[:0]}
}

// watchdog advances the deadlock detector after a cycle's movement count
// is final.
func (net *Network) watchdog() {
	if net.Cfg.DeadlockThreshold <= 0 {
		return
	}
	if net.flitsIn > net.flitsOut && net.moved == 0 {
		net.idleStreak++
		if net.idleStreak >= net.Cfg.DeadlockThreshold && net.DeadlockAt < 0 {
			net.DeadlockAt = net.Now
		}
	} else {
		net.idleStreak = 0
	}
}

// injectNode moves flits from one node's source queue into its
// injection-port buffers, accumulating counters into sc. atomicWake marks
// the node's wake word as shared between parallel shards.
func (net *Network) injectNode(n int, sc *workerScratch, atomicWake bool) {
	{
		s := &net.sources[n]
		if s.cur == nil && s.head == len(s.q) {
			return
		}
		r := net.Nodes[n]
		in := r.In[r.InjectPort]
		budget := net.Cfg.InjectionBandwidth
		for budget > 0 {
			if s.cur == nil {
				if s.head == len(s.q) {
					break
				}
				p := s.q[s.head]
				if p.CreatedAt > net.Now {
					break
				}
				// Pick the injection VC with the most free space, with the
				// same class affinity as VC allocation (latency-sensitive
				// high, throughput low) so control packets do not queue
				// behind bulk transfers at the source. Throughput packets
				// stop at the first eligible VC — nothing later in the scan
				// can displace the lowest one.
				best, bestFree := -1, 0
				for v := range in.VCs {
					f := in.VCs[v].Buf.Free()
					if f == 0 {
						continue
					}
					if best < 0 {
						best, bestFree = v, f
						if p.Class == ClassThroughput {
							break
						}
						continue
					}
					switch {
					case p.Class == ClassLatencySensitive:
						best, bestFree = v, f // highest eligible VC
					case f > bestFree:
						best, bestFree = v, f
					}
				}
				if best < 0 {
					break
				}
				s.q[s.head] = nil
				s.head++
				if s.head == len(s.q) {
					s.q, s.head = s.q[:0], 0
				}
				s.cur, s.curSeq, s.curVC = p, 0, VCID(best)
				p.InjectedAt = net.Now
				sc.pktsIn++
			}
			vc := &in.VCs[s.curVC]
			if budget > 0 && s.curSeq < int32(s.cur.Length) && vc.Buf.Free() > 0 {
				net.wakeNodeMode(r.ID, atomicWake)
				slot := r.InjectPort*r.slotVCs + int(s.curVC)
				if !vc.Active {
					// The VC will hold a head flit awaiting RC+VA next
					// cycle (if it already does, re-marking is a no-op).
					// When this packet's own head is about to become the
					// front, denormalize it; an inactive non-empty buffer
					// already fronts an earlier head, cached on arrival.
					if s.curSeq == 0 && vc.Buf.Empty() {
						vc.cacheHeadPkt(s.cur)
					}
					r.markPend(slot)
				} else {
					r.saReady[slot>>6] |= 1 << (uint(slot) & 63)
				}
			}
			for budget > 0 && s.curSeq < int32(s.cur.Length) && vc.Buf.Free() > 0 {
				vc.Buf.Push(Flit{Pkt: s.cur, Seq: s.curSeq, VC: s.curVC})
				r.buffered++
				s.curSeq++
				budget--
				sc.flitsIn++
				sc.moved++
			}
			if s.curSeq == int32(s.cur.Length) {
				s.cur = nil
				continue
			}
			break // buffer full or budget exhausted
		}
	}
}

// Run drives the network for the given number of cycles, invoking drive
// (which may be nil) at the start of every cycle so traffic generators can
// Offer packets. It returns a deadlock error if the watchdog fires.
func (net *Network) Run(cycles int64, drive func(now int64)) error {
	return net.RunWith(cycles, drive, nil)
}

// RunWith is Run with a fast-forward contract: next, when non-nil, reports
// the earliest cycle ≥ its argument at which drive may Offer a packet (or a
// negative value for "never again"). When the network is quiescent the
// engine skips Now directly to the next cycle at which anything can happen
// instead of stepping idle cycles. A nil next with a non-nil drive disables
// fast-forwarding entirely (the driver is assumed to need every cycle, as
// Bernoulli generators do); a nil drive lets the engine skip to the next
// source-queue injection time on its own. Results are bit-identical to
// stepping every cycle: a skipped cycle is one in which Step would only
// have advanced Now (no wake-list work, no eligible source, no driver
// event, and the watchdog's idle streak already pinned to zero by
// flitsIn == flitsOut).
func (net *Network) RunWith(cycles int64, drive func(now int64), next func(now int64) int64) error {
	end := net.Now + cycles
	for net.Now < end {
		if drive != nil {
			drive(net.Now)
		}
		net.Step()
		if net.DeadlockAt >= 0 {
			return fmt.Errorf("network: deadlock detected at cycle %d (%d flits stuck)", net.DeadlockAt, net.flitsIn-net.flitsOut)
		}
		if (drive != nil && next == nil) || !net.idle() {
			continue
		}
		target := end
		if t := net.nextSourceEvent(); t >= 0 && t < target {
			target = t
		}
		if next != nil {
			if t := next(net.Now); t >= 0 && t < target {
				target = t
			}
		}
		if target > net.Now {
			net.Now = target
		}
	}
	return nil
}

// Drain runs without new traffic until every in-flight and queued packet is
// delivered, up to cfg.DrainCycles additional cycles. It reports whether
// the network fully drained. An idle network with only future-timestamped
// packets queued skips straight to the earliest of them.
func (net *Network) Drain() (bool, error) {
	deadline := net.Now + net.Cfg.DrainCycles
	for net.Now < deadline {
		if net.Quiescent() {
			return true, nil
		}
		if net.idle() {
			if t := net.nextSourceEvent(); t > net.Now {
				net.Now = min(t, deadline)
				continue
			}
		}
		net.Step()
		if net.DeadlockAt >= 0 {
			return false, fmt.Errorf("network: deadlock detected at cycle %d while draining", net.DeadlockAt)
		}
	}
	return net.Quiescent(), nil
}

// idle reports whether stepping the network would be a strict no-op: every
// flit delivered and no link pipeline (forward or credit) still draining.
// Credits in flight block idleness — skipping would deliver them late and
// change downstream allocation timing.
func (net *Network) idle() bool {
	if net.flitsIn != net.flitsOut {
		return false
	}
	if p := net.par; p != nil {
		for w := 0; w < p.workers; w++ {
			if len(p.fwdWake[w]) > 0 || len(p.crWake[w]) > 0 {
				return false
			}
		}
		return true
	}
	return len(net.fwdWake) == 0 && len(net.crWake) == 0
}

// nextSourceEvent returns the earliest cycle at which a source queue can
// inject: Now itself if any queue holds an eligible packet, the minimum
// future CreatedAt otherwise, or -1 if every queue is empty.
func (net *Network) nextSourceEvent() int64 {
	next := int64(-1)
	for wi, w := range net.srcWake {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			s := &net.sources[wi<<6+b]
			if s.cur != nil {
				return net.Now
			}
			if s.head < len(s.q) {
				t := s.q[s.head].CreatedAt
				if t <= net.Now {
					return net.Now
				}
				if next < 0 || t < next {
					next = t
				}
			}
		}
	}
	return next
}

// Quiescent reports whether no packets are queued or in flight.
func (net *Network) Quiescent() bool {
	if net.flitsIn > net.flitsOut {
		return false
	}
	for i := range net.sources {
		s := &net.sources[i]
		if s.cur != nil || s.head < len(s.q) {
			return false
		}
	}
	return true
}

// InFlightFlits returns the number of flits inside the network.
func (net *Network) InFlightFlits() int64 { return net.flitsIn - net.flitsOut }

// PacketsInjected returns the number of packets whose injection started.
func (net *Network) PacketsInjected() int64 { return net.pktsIn }

// PacketsDelivered returns the number of packets fully ejected.
func (net *Network) PacketsDelivered() int64 { return net.pktsOut }

// QueuedPackets returns the number of packets waiting in source queues.
func (net *Network) QueuedPackets() int {
	total := 0
	for i := range net.sources {
		s := &net.sources[i]
		total += len(s.q) - s.head
		if s.cur != nil {
			total++
		}
	}
	return total
}

// CheckCredits verifies, for every plain (non-adapter) link, that
// credits + credits-in-return + flits-in-pipe + flits-buffered equals the
// downstream buffer depth for every VC. Tests call it; it is O(network).
func (net *Network) CheckCredits() error {
	for _, l := range net.Links {
		if l.Adapter != nil {
			continue
		}
		src := net.Nodes[l.Src].Out[l.SrcPort]
		dstIn := net.Nodes[l.Dst].In[l.DstPort]
		for v := range src.Credits {
			inPipe := 0
			if l.retry != nil {
				// A retry link's credit-holding flits are exactly the
				// accepted-but-undelivered ones; a delivered-but-unacked
				// replay copy must not be counted twice (its flit already
				// sits in the downstream buffer).
				l.retry.UndeliveredVCs(func(vc VCID) {
					if int(vc) == v {
						inPipe++
					}
				})
			} else {
				// Direct links hold in-flight flits staged in the
				// destination ring (excluded from Buf.Len) and recorded
				// in the staged run list; pipe links hold them in stages.
				for _, run := range l.staged {
					if int(run.vc) == v {
						inPipe += int(run.n)
					}
				}
				for _, stage := range l.pipe {
					for _, f := range stage {
						if int(f.VC) == v {
							inPipe++
						}
					}
				}
			}
			returning := int(l.credPend[v])
			for _, stage := range l.creditPipe {
				for _, c := range stage {
					if int(c.vc) == v {
						returning += int(c.n)
					}
				}
			}
			got := src.Credits[v] + returning + inPipe + dstIn.VCs[v].Buf.Len()
			want := dstIn.VCs[v].Buf.Cap()
			if got != want {
				return fmt.Errorf("network: credit imbalance on link %d (%v %d->%d) vc %d: credits=%d returning=%d inPipe=%d buffered=%d, sum %d != depth %d",
					l.ID, l.Kind, l.Src, l.Dst, v, src.Credits[v], returning, inPipe, dstIn.VCs[v].Buf.Len(), got, want)
			}
		}
	}
	return nil
}
