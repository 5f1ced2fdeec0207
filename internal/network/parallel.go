package network

import (
	"math/bits"
	"os"
	"runtime"
	"sync/atomic"
)

// Parallel stepping. The synchronous two-phase cycle model makes the
// engine embarrassingly parallel *within* each phase once writes are
// grouped by owner:
//
//   - link delivery writes only the destination router (links sharded by Dst);
//   - credit completion writes only the source router (links sharded by Src);
//   - a router tick writes its own state, the links it sources (Accept),
//     the links it sinks (ReturnCredit) and the packets at its VC heads —
//     all owned by exactly one router;
//   - injection writes only the node's own source queue and buffers.
//
// Shards are contiguous node ranges whose bounds are fixed once, in
// SetWorkers: each cut sits at its count-balanced position, moved to the
// nearest 64-aligned node when one lies within a quarter of an ideal shard
// (the cut's wake word then keeps a single owner). A cut that stays inside
// a nodeWake/srcWake bitmap word marks that word in sharedWords, and that
// word alone is accessed with atomic Or/And/Load; all other words keep the
// plain single-owner fast path. Sub-word cuts are what give a 64-node
// system more than one non-empty shard.
//
// Work is executed by persistent worker goroutines parked on per-worker
// command channels; the two phase closures are bound once in SetWorkers,
// so dispatching a step performs no allocation. When the process has only
// one usable CPU (GOMAXPROCS or NumCPU of 1) the shards run inline on the
// coordinating goroutine instead — same shard structure and results,
// none of the cross-goroutine overhead.
//
// Links woken by a router tick (Accept/ReturnCredit on a possibly
// foreign-shard link) are recorded in the worker's private scratch and
// folded into the owning shard's wake list by the coordinator at the merge
// barrier. Shared aggregates (movement counters, grant/VA statistics,
// finished packets) are accumulated per worker and merged at the barrier,
// and the Sink/OnDeliver callbacks run on the coordinating goroutine, so
// results are bit-identical to sequential stepping regardless of worker
// count or shard placement — see TestParallelMatchesSequential and
// experiments.TestParallelOracle.
type parallelState struct {
	workers int
	// single runs every shard inline on the coordinator when the process
	// has one usable CPU: identical shard semantics, zero dispatch cost.
	single bool

	// bounds[w]..bounds[w+1] is shard w's node range (see cutBounds).
	bounds []int

	linkDstShard []int32 // owning shard of each link's forward wake entry
	linkSrcShard []int32 // owning shard of each link's credit wake entry

	// sharedWords is a bitmap over nodeWake/srcWake *word* indices: a set
	// bit marks a word crossed by a shard boundary, which must be accessed
	// atomically. All zero in single mode.
	sharedWords []uint64

	fwdWake [][]int32 // per dst-shard links with non-empty forward pipelines
	crWake  [][]int32 // per src-shard links with credits in flight

	// deliverFns are the per-link delivery closures, the parallel twin of
	// Network.deliverFns, each bound to its owning shard's scratch.
	deliverFns []func(Flit)

	scratch []workerScratch

	// phase1Fn/phase2Fn are bound once; dispatch sends these prebuilt
	// values so a step allocates nothing.
	phase1Fn func(int)
	phase2Fn func(int)
	pool     *workerPool // nil in single mode
}

type workerScratch struct {
	moved        uint64
	flitsIn      int64
	flitsOut     int64
	pktsIn       int64
	pktsOut      int64
	grantsByKind [8]uint64
	vaFailures   uint64
	finished     []*Packet
	wokeFwd      []int32 // links whose forward pipeline went busy this tick
	wokeCr       []int32 // links whose credit pipeline went busy this tick

	_pad [64]byte // avoid false sharing between workers
}

// SetWorkers enables parallel stepping across n goroutines (1 or 0
// restores sequential mode). Call after Finalize. Results are identical to
// sequential stepping; speedups appear on saturated systems from a few
// hundred nodes up, provided the process has the CPUs (on a single-CPU
// process the shards run inline and parallel mode merely matches
// sequential throughput).
func (net *Network) SetWorkers(n int) {
	if net.par != nil {
		if pool := net.par.pool; pool != nil {
			pool.stop()
		}
		net.par = nil
	}
	if n <= 1 {
		net.rebuildWake()
		return
	}
	total := len(net.Nodes)
	words := (total + 63) / 64
	p := &parallelState{
		workers:      n,
		single:       effectiveParallelism() < 2 && !forceWorkerDispatch,
		bounds:       cutBounds(total, n),
		linkDstShard: make([]int32, len(net.Links)),
		linkSrcShard: make([]int32, len(net.Links)),
		sharedWords:  make([]uint64, (words+63)/64),
		scratch:      make([]workerScratch, n),
		fwdWake:      make([][]int32, n),
		crWake:       make([][]int32, n),
	}
	p.fit(net)
	p.bindDeliverFns(net)
	p.phase1Fn = func(w int) { net.parPhase1(w) }
	p.phase2Fn = func(w int) { net.parPhase2(w) }
	if !p.single {
		p.pool = startWorkers(n)
	}
	net.par = p
	net.rebuildWake()
}

// forceWorkerDispatch makes SetWorkers use real worker goroutines even on
// a single-CPU process. Tests set it (and CI's race job exports
// HETEROIF_FORCE_PARALLEL=1) so the dispatch and shared-word paths run
// under the race detector regardless of the host's CPU count.
var forceWorkerDispatch = os.Getenv("HETEROIF_FORCE_PARALLEL") != ""

// effectiveParallelism is the number of shards that can actually execute
// concurrently.
func effectiveParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	return n
}

// cutBounds returns the shard bounds of a total-node network split n
// ways: cut w sits at total*w/n, moved to the nearest 64-aligned node
// within a quarter of an ideal shard (the lower one on a tie), else left
// exact. The aligned node above never lies past total when it is within
// the slack: total-t is at least an ideal shard, four times the slack.
func cutBounds(total, n int) []int {
	b := make([]int, n+1)
	b[n] = total
	slack := total/(4*n) + 1
	for w := 1; w < n; w++ {
		t := total * w / n
		c := t
		lo, hi := t&^63, (t+63)&^63
		switch {
		case t-lo <= slack && t-lo <= hi-t:
			c = lo
		case hi-t <= slack:
			c = hi
		}
		b[w] = max(c, b[w-1])
	}
	return b
}

// fit derives everything that follows from bounds: the link→shard maps
// and the shared-word bitmap.
func (p *parallelState) fit(net *Network) {
	total := len(net.Nodes)
	nodeShard := make([]int32, total)
	for i, w := 0, 0; i < total; i++ {
		for w+1 < p.workers && i >= p.bounds[w+1] {
			w++
		}
		nodeShard[i] = int32(w)
	}
	if !p.single {
		// A boundary interior to a 64-node word makes that word visible to
		// two shards; inline (single) execution needs no atomics.
		for _, b := range p.bounds[1:p.workers] {
			if b&63 != 0 && b < total {
				wi := uint(b) >> 6
				p.sharedWords[wi>>6] |= 1 << (wi & 63)
			}
		}
	}
	for i, l := range net.Links {
		p.linkDstShard[i] = nodeShard[l.Dst]
		p.linkSrcShard[i] = nodeShard[l.Src]
	}
}

// bindDeliverFns builds the per-link delivery closures once, each bound
// to the scratch and wake-word mode of the link's destination shard.
func (p *parallelState) bindDeliverFns(net *Network) {
	p.deliverFns = make([]func(Flit), len(net.Links))
	for i, l := range net.Links {
		dst := net.Nodes[l.Dst]
		port := l.DstPort
		wi, bit := uint(l.Dst)>>6, uint64(1)<<(uint(l.Dst)&63)
		shared := p.isShared(wi)
		sc := &p.scratch[p.linkDstShard[i]]
		p.deliverFns[i] = func(f Flit) {
			dst.deliver(port, f)
			if shared {
				atomic.OrUint64(&net.nodeWake[wi], bit)
			} else {
				net.nodeWake[wi] |= bit
			}
			sc.moved++
		}
	}
}

// isShared reports whether wake word wi is crossed by a shard boundary
// and therefore needs atomic access.
func (p *parallelState) isShared(wi uint) bool {
	return p.sharedWords[wi>>6]>>(wi&63)&1 != 0
}

// workerPool owns the persistent worker goroutines. It holds only their
// channels, nothing that reaches the Network, so an abandoned Network
// makes the pool unreachable too and its finalizer releases the
// goroutines. (A finalizer on parallelState would never run: its phase
// closures reach the Network, which reaches the state back, and the
// runtime does not finalize objects on a cycle.)
type workerPool struct {
	cmd []chan func(int) // index 0 unused: worker 0 is the coordinator
	ack []chan struct{}
}

// startWorkers launches workers-1 persistent worker goroutines, parked on
// their command channels between steps.
func startWorkers(workers int) *workerPool {
	pool := &workerPool{
		cmd: make([]chan func(int), workers),
		ack: make([]chan struct{}, workers),
	}
	for w := 1; w < workers; w++ {
		cmd := make(chan func(int), 1)
		ack := make(chan struct{}, 1)
		pool.cmd[w], pool.ack[w] = cmd, ack
		go parallelWorker(w, cmd, ack)
	}
	runtime.SetFinalizer(pool, (*workerPool).release)
	return pool
}

// parallelWorker is deliberately a top-level function capturing nothing
// but its channels, so it keeps neither the Network nor the pool alive.
func parallelWorker(w int, cmd <-chan func(int), ack chan<- struct{}) {
	for fn := range cmd {
		fn(w)
		ack <- struct{}{}
	}
}

// dispatch runs fn(worker) on every worker and waits. The channel
// send/receive pairs provide the happens-before edges that publish one
// phase's writes to every shard before the next phase reads them.
func (pool *workerPool) dispatch(fn func(int)) {
	for w := 1; w < len(pool.cmd); w++ {
		pool.cmd[w] <- fn
	}
	fn(0)
	for w := 1; w < len(pool.cmd); w++ {
		<-pool.ack[w]
	}
}

// stop releases the worker goroutines of a pool in use; SetWorkers calls
// it when re-sharding or restoring sequential mode. It cancels the
// finalizer first, so the channels are closed exactly once.
func (pool *workerPool) stop() {
	runtime.SetFinalizer(pool, nil)
	pool.release()
}

// release ends the worker goroutines by closing their command channels.
func (pool *workerPool) release() {
	for _, cmd := range pool.cmd[1:] {
		close(cmd)
	}
}

// stepParallel is Step's parallel twin.
func (net *Network) stepParallel() {
	p := net.par
	net.moved = 0
	if p.single {
		for w := 0; w < p.workers; w++ {
			net.parPhase1(w)
		}
		for w := 0; w < p.workers; w++ {
			net.parPhase2(w)
		}
	} else {
		p.pool.dispatch(p.phase1Fn)
		p.pool.dispatch(p.phase2Fn)
	}

	// Merge scratch, run sinks and distribute woken links in deterministic
	// (shard) order.
	for w := range p.scratch {
		net.mergeScratch(&p.scratch[w])
	}

	net.watchdog()
	net.Now++
}

// parPhase1 runs one shard's link deliveries (sharded by destination
// router — they write that router's buffers and wake bits) fused with
// credit completions (sharded by source router — they write that router's
// credit counters). The two halves touch disjoint Link fields (forward
// pipe and fwdQueued vs credit pipe and crQueued), so one barrier covers
// both.
func (net *Network) parPhase1(w int) {
	p := net.par
	if lw := p.fwdWake[w]; len(lw) > 0 {
		sc := &p.scratch[w]
		keep := lw[:0]
		for _, li := range lw {
			l := net.Links[li]
			net.linkArrivals(l, p.deliverFns[li], &sc.moved, p.isShared(uint(l.Dst)>>6))
			if l.fwdBusy() {
				keep = append(keep, li)
			} else {
				l.fwdQueued = false
			}
		}
		p.fwdWake[w] = keep
	}
	if lw := p.crWake[w]; len(lw) > 0 {
		keep := lw[:0]
		for _, li := range lw {
			l := net.Links[li]
			l.creditArrivals()
			if l.creditsInFlight > 0 {
				keep = append(keep, li)
			} else {
				l.crQueued = false
			}
		}
		p.crWake[w] = keep
	}
}

// parPhase2 runs one shard's router pipelines fused with injection — both
// only touch the shard's own routers and wake bits, and injected flits
// are not observable elsewhere until the next cycle's link phase. The
// router work bitmaps (allocPend/saActive/saReady) and the parking state
// (vaParked, OutPort.parked/waitSlot) follow the same ownership
// discipline: deliveries mark pending slots on the destination shard in
// phase 1, credit completions unpark at the source router in phase 1, and
// ticks/injection touch only the shard's own routers here. Wake words
// crossed by a shard boundary are the one exception, handled with atomic
// Or/And — other shards only ever touch *their* bits of such a word.
func (net *Network) parPhase2(w int) {
	p := net.par
	lo, hi := p.bounds[w], p.bounds[w+1]
	if lo >= hi {
		return
	}
	sc := &p.scratch[w]
	ctx := tickContext{net: net, scratch: sc, reference: net.refTick}
	net.tickNodeRange(&ctx, lo, hi)
	net.injectNodeRange(sc, lo, hi)
}

// tickNodeRange runs Phase 2 for the routers woken in nodes [lo, hi), in
// ascending node order, clearing the bit of any router that drained
// completely. The parallel twin of tickNodes: ranges are node positions,
// not word positions, with boundary words masked and accessed atomically
// when shared.
func (net *Network) tickNodeRange(ctx *tickContext, lo, hi int) {
	p := net.par
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		shared := p.isShared(uint(wi))
		var w uint64
		if shared {
			w = atomic.LoadUint64(&net.nodeWake[wi])
		} else {
			w = net.nodeWake[wi]
		}
		w &= shardWordMask(wi, lo, hi)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			r := net.Nodes[wi<<6+b]
			r.tickCtx(ctx)
			if r.buffered == 0 {
				if shared {
					atomic.AndUint64(&net.nodeWake[wi], ^(uint64(1) << uint(b)))
				} else {
					net.nodeWake[wi] &^= 1 << uint(b)
				}
			}
		}
	}
}

// injectNodeRange runs Phase 3 for the sources woken in nodes [lo, hi),
// the parallel twin of injectNodes.
func (net *Network) injectNodeRange(sc *workerScratch, lo, hi int) {
	p := net.par
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		shared := p.isShared(uint(wi))
		var w uint64
		if shared {
			w = atomic.LoadUint64(&net.srcWake[wi])
		} else {
			w = net.srcWake[wi]
		}
		w &= shardWordMask(wi, lo, hi)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			ni := wi<<6 + b
			net.injectNode(ni, sc, shared)
			s := &net.sources[ni]
			if s.cur == nil && s.head == len(s.q) {
				if shared {
					atomic.AndUint64(&net.srcWake[wi], ^(uint64(1) << uint(b)))
				} else {
					net.srcWake[wi] &^= 1 << uint(b)
				}
			}
		}
	}
}

// shardWordMask masks word wi down to the bits whose node indices lie in
// [lo, hi).
func shardWordMask(wi, lo, hi int) uint64 {
	m := ^uint64(0)
	base := wi << 6
	if d := lo - base; d > 0 {
		m &= ^uint64(0) << uint(d)
	}
	if d := hi - base; d < 64 {
		m &= uint64(1)<<uint(d) - 1
	}
	return m
}
