package network

import (
	"fmt"
	"math/bits"
)

// Candidate is one output channel option produced by a routing function:
// an output port plus the set of virtual channels the packet may request on
// it. Escape marks channels belonging to the baseline deadlock-free
// subnetwork C0 (Algorithm 1, line 5): they are always safe to take, while
// non-escape (adaptive) channels are preferred shortcuts.
type Candidate struct {
	Port   int
	VCMask uint16
	Escape bool
}

// Routing computes candidate output channels for a packet whose head flit
// sits at router r, having arrived through input port inPort (the injection
// port for freshly injected packets). Implementations append to buf and
// return it, to avoid per-call allocation. Candidates must be ordered by
// preference; the router picks the first allocatable one. Routing functions
// must guarantee that at least one escape candidate is connected toward the
// destination (Lemma 1).
type Routing interface {
	Route(net *Network, r *Router, inPort int, pkt *Packet, buf []Candidate) []Candidate
	Name() string
}

// RouteStability classifies how much of a routing function's output the
// engine may reuse without re-invoking Route. It is the contract behind the
// RC-memoization fast paths; every level must keep results bit-identical to
// calling Route every cycle.
type RouteStability uint8

const (
	// RouteDynamic gives no reuse guarantee: Route may consult mutable
	// network state (congestion, occupancy), so the engine re-evaluates it
	// every cycle a head flit waits for VC allocation.
	RouteDynamic RouteStability = iota

	// RouteRetryStable guarantees that repeated Route calls for the same
	// packet waiting at the same router return identical candidates as long
	// as the packet's Restricted flag is unchanged, and that any packet
	// mutations Route performs are either confined to fields in that key
	// (Restricted) or idempotent across calls (e.g. the Target waypoint,
	// fixed once per chiplet). The engine may then cache the candidate set
	// on the input VC across VA-retry cycles and skip the retry entirely
	// when nothing the allocator reads (output credits, Held bits) has
	// changed since the last failure.
	RouteRetryStable

	// RoutePure additionally guarantees that Route is a pure function of
	// (router, pkt.Dst, pkt.Restricted) and static topology — independent
	// of inPort, the cycle, and all other packet or network state — and
	// mutates nothing. The engine may then precompute a per-(router, dst,
	// restricted) route LUT before the first Step. Algorithms whose purity
	// is conditional (e.g. a torus that mutates packets only when dead
	// wraparound channels exist) report the level that currently holds;
	// topology faults must be injected before the first Step.
	RoutePure
)

// Stable is the optional capability interface of Routing implementations
// that declare a reuse contract. Stability is consulted once, on the first
// Step after construction (after any topology fault injection). Algorithms
// that do not implement it are treated as RouteDynamic.
type Stable interface {
	Routing
	Stability() RouteStability
}

// VCState is one virtual-channel input buffer and its allocation state.
// The queue is embedded by value and every router's VCStates live in one
// per-network slab (Network.packSlabs), so the switch stage reads occupancy
// and head state from the slot itself instead of chasing a *FlitQueue.
type VCState struct {
	Buf FlitQueue

	// Active is true while the packet at the front of Buf holds an output
	// VC; OutPort/OutVC identify it. The allocation is released when the
	// packet's tail flit traverses the switch.
	Active  bool
	OutPort int
	OutVC   VCID

	// headSeq/headLen cache the front flit's sequence number and its
	// packet's length while the VC holds an output allocation, so switch
	// allocation computes the transferable run without touching the ring
	// data or the Packet. Set by cacheHead when a head flit becomes the
	// front of an inactive VC, advanced by every drain; flits arrive in
	// order, so the cache always matches the front flit of an active VC.
	headSeq int32
	headLen int32

	// headDst/headPktID/headClass/headRestricted denormalize the front
	// head flit's routing-relevant packet fields into the slot (cacheHead,
	// same sites as headSeq/headLen), so RC+VA run without dereferencing
	// the ring or the Packet. Dst, ID, Class and Length are immutable for
	// a packet's lifetime; Restricted is mutable, and every engine write
	// while the head waits goes through allocate, which updates both
	// copies (the canonical Packet stays the source of truth for routing
	// functions and diagnostics).
	headDst        NodeID
	headPktID      uint64
	headClass      Class
	headRestricted bool

	// RC-memoization state (RouteRetryStable and better; see allocate).
	// cands caches the candidate set computed for the packet candsPkt with
	// Restricted == candsRestricted, so VA retries reuse it instead of
	// re-invoking Route.
	cands           []Candidate
	candsPkt        uint64
	candsRestricted bool
}

// InPort is a router input: the upstream link (nil for the injection port)
// and one buffer per VC.
type InPort struct {
	Link *Link
	Kind LinkKind
	// depth is the per-VC buffer depth; Finalize allocates the rings. An
	// int32 fits the padding after Kind, keeping InPort at 56 bytes.
	depth int32
	// DrainBudget bounds how many flits this input may push through the
	// crossbar per cycle (the upstream channel bandwidth).
	DrainBudget int
	// Interface marks die-to-die inputs: the heterogeneous router's
	// multi-port input buffer may drain several VCs of such a port in one
	// cycle (Sec. 4.1); regular inputs drain one VC per cycle.
	Interface bool
	VCs       []VCState
}

// OutPort is a router output: the downstream link (nil for the ejection
// port), per-VC credit counters and output-VC allocation state.
type OutPort struct {
	Link *Link
	Kind LinkKind
	// Depth is the per-VC downstream buffer depth.
	Depth int
	// Credits tracks free buffer slots per downstream VC.
	Credits []int
	// Held marks output VCs currently allocated to an in-flight packet.
	// heldMask mirrors it as a bitmask so VC allocation can reject every
	// held VC of a candidate in one AND-NOT instead of a per-VC scan; the
	// two are updated together. vcLimit masks candidate VCMasks down to
	// the VCs that exist (a candidate may name VCs beyond len(Credits);
	// the reference scan ignores them by loop bound).
	Held     []bool
	heldMask uint16
	vcLimit  uint16
	// Interface marks die-to-die outputs: the higher-radix crossbar lets
	// several input VCs feed such an output concurrently (Sec. 4.1);
	// regular outputs accept one input VC per cycle.
	Interface bool

	// parked is the set of the router's flattened input-VC slots whose VC
	// allocation is parked watching this output: their last attempt failed
	// and only a credit arrival or output-VC release *here* can change the
	// outcome (see Router.vaParked). waitSlot[v], when ≥ 0, is the slot
	// holding output VC v whose switch traversal is parked on an empty
	// credit counter; the credit completion that refills it puts the slot
	// back on the ready list. Both are maintained through shared helpers so
	// the optimized and reference ticks stay interchangeable.
	parked   []uint64
	waitSlot []int32

	// slow marks outputs whose link needs the per-flit switch path
	// (adapter or retry protocol work in Accept). Derived in Finalize and
	// kept current by EnableRetry/SetAdapter, so saSlotFast reads one
	// hot-line flag instead of chasing the Link struct tail.
	slow bool
}

// setHeld and clearHeld keep Held and heldMask in lockstep.
func (o *OutPort) setHeld(vc int) {
	o.Held[vc] = true
	o.heldMask |= 1 << uint(vc)
}

func (o *OutPort) clearHeld(vc VCID) {
	o.Held[vc] = false
	o.heldMask &^= 1 << uint(vc)
}

// Router is a canonical virtual-channel router (Sec. 7.1), extended at
// interface ports with the paper's heterogeneous-router microarchitecture.
//
// The per-cycle work of a saturated router is found through two bitmaps
// over flattened (input port, VC) slots instead of a full port×VC rescan:
// allocPend marks input VCs whose front flit is a head awaiting RC+VA
// (pushed by deliver, injection, and tail release), saActive marks input
// VCs holding an output allocation (maintained by allocate and the switch
// stage). A bit off either map is always a slot whose visit would have
// been a no-op, and bitmap scans yield the same ascending slot order as
// the dense loops, so results stay bit-identical — tickReference retains
// the scanning implementation as the oracle for exactly that claim.
type Router struct {
	ID  NodeID
	In  []*InPort
	Out []*OutPort

	// InjectPort and EjectPort index the local ports in In and Out.
	InjectPort int
	EjectPort  int

	buffered  int // total flits across all input VC buffers (activity)
	activeVCs int // input VCs holding an output allocation
	rr        int // round-robin arbitration pointer

	// flat maps a flattened arbitration slot to its (input port, VC); the
	// pointers avoid re-deriving them per slot in the hot loops. Built by
	// rebuildWork once the port set is final.
	flat []flatSlot

	// slotVCs is the per-port VC count, for slot index arithmetic.
	slotVCs int

	// allocPend and saActive are the work bitmaps over flat slots
	// described above.
	allocPend []uint64
	saActive  []uint64

	// vaParked holds slots removed from allocPend because their VC
	// allocation provably fails until one of the output ports their
	// candidates name (recorded in OutPort.parked) sees a credit arrival
	// or an output-VC release — the only two events that can change a VA
	// outcome. unparkPort moves a port's watchers back to allocPend when
	// either occurs. vaParkedCount mirrors the bitmap's population so the
	// optimized tick can charge each parked slot its per-cycle VA-failure
	// statistic with one addition (the reference tick instead revisits the
	// slot and fails again — same count, so both ticks stay bit-identical).
	//
	// saReady is the subset of saActive whose switch traversal can make
	// progress: a slot starved of credits on its allocated output VC drops
	// out (saSlotFast records it in OutPort.waitSlot) until the refilling
	// credit completes. Parked-slot visits would be no-ops, and blocking
	// conditions are monotone within a cycle, so scanning saReady grants
	// exactly what scanning saActive would.
	vaParked      []uint64
	vaParkedCount int
	saReady       []uint64

	// scratch buffers reused across cycles
	cands    []Candidate
	outSlots []int
	outVCs   []int // input VCs granted per output this cycle
	inUsed   []int // flits drained per input this cycle
	inVCs    []int // VCs granted per input this cycle

	// Switch-allocation early exit (optimized tick only): outAvail/inAvail
	// count output and input ports that could still take part in a grant
	// this cycle. Port ineligibility is monotone within a cycle (budgets
	// only shrink, grant counts only grow), so each transition decrements
	// its counter at most once, and when either counter reaches zero every
	// remaining slot visit is provably a no-op — the scan stops without
	// changing which grants happen. inBudgeted is the static number of
	// inputs with a non-zero drain budget (rebuildWork).
	outAvail   int
	inAvail    int
	inBudgeted int

	// Static switch-budget prologue (rebuildWork): outBase[i] is out port
	// i's per-cycle budget at switch-allocation time — EjectionBandwidth
	// for the ejection port, link Bandwidth for plain links (their accepted
	// counter is always zero when their source router's tick runs; only
	// that tick raises it, and the phase-1 link advance clears it). Ports
	// on adapter/retry links have a truly dynamic budget and are listed in
	// outDyn for a per-cycle FreeSlots call. outAvailBase counts static
	// ports with a non-zero budget. ejBW is Config.EjectionBandwidth,
	// captured at construction so rebuildWork needs no Config.
	outBase      []int
	outDyn       []int32
	outAvailBase int
	ejBW         int

	// lutBase is this router's row offset into the route LUT's offs table
	// (prepare sets it when a LUT is built), so the hot lookup skips the
	// row multiply.
	lutBase int

	// slotOut[slot] is the output port the slot's VC allocation granted
	// (valid while the slot is in saActive; grantVC writes it). The whole
	// array spans a cache line or two at typical radix, so the switch-
	// stage scan rejects slots whose output is spent this cycle without
	// touching their VCState lines.
	slotOut []int16
}

// flatSlot is one flattened arbitration slot.
type flatSlot struct {
	in *InPort
	vc *VCState
	ip int32
	v  int32
}

// newRouter constructs a router with only local ports; topology builders add
// link ports via AddInPort/AddOutPort.
func newRouter(cfg *Config, id NodeID) *Router {
	r := &Router{ID: id, InjectPort: 0, EjectPort: 0, ejBW: cfg.EjectionBandwidth}
	// Injection input port.
	inj := &InPort{Kind: KindLocal, depth: int32(cfg.BufPerVC(KindLocal)), DrainBudget: cfg.InjectionBandwidth}
	inj.VCs = make([]VCState, cfg.VCs)
	r.In = append(r.In, inj)
	// Ejection output port: no link, no credits needed beyond rate limit.
	ej := &OutPort{Kind: KindLocal, Interface: true}
	r.Out = append(r.Out, ej)
	return r
}

// AddInPort attaches the sink side of a link and returns the new input-port
// index.
func (r *Router) AddInPort(cfg *Config, l *Link) int {
	p := &InPort{
		Link:        l,
		Kind:        l.Kind,
		depth:       int32(cfg.BufPerVC(l.Kind)),
		DrainBudget: l.Bandwidth,
		Interface:   l.Kind != KindOnChip,
	}
	p.VCs = make([]VCState, cfg.VCs)
	r.In = append(r.In, p)
	return len(r.In) - 1
}

// AddOutPort attaches the source side of a link and returns the new
// output-port index.
func (r *Router) AddOutPort(cfg *Config, l *Link) int {
	p := &OutPort{
		Link:      l,
		Kind:      l.Kind,
		Interface: l.Kind != KindOnChip,
	}
	depth := cfg.BufPerVC(l.Kind)
	p.Depth = depth
	p.Credits = make([]int, cfg.VCs)
	p.Held = make([]bool, cfg.VCs)
	p.vcLimit = 1<<uint(cfg.VCs) - 1
	for i := range p.Credits {
		p.Credits[i] = depth
	}
	r.Out = append(r.Out, p)
	return len(r.Out) - 1
}

// rebuildWork (re)derives the flattened slot table, the work bitmaps and
// the held masks from current port state. Finalize and SetWorkers call it;
// it is O(router), never per-cycle.
func (r *Router) rebuildWork() {
	r.slotVCs = len(r.In[0].VCs)
	r.flat = r.flat[:0]
	for ip, in := range r.In {
		for v := range in.VCs {
			r.flat = append(r.flat, flatSlot{in: in, vc: &in.VCs[v], ip: int32(ip), v: int32(v)})
		}
	}
	words := (len(r.flat) + 63) >> 6
	if len(r.allocPend) != words {
		// One backing array: the four work bitmaps of a typical-radix
		// router (one word each) share a cache line, so a slot's full
		// VA/SA decision state loads together.
		bm := make([]uint64, 4*words)
		r.allocPend = bm[:words:words]
		r.saActive = bm[words : 2*words : 2*words]
		r.vaParked = bm[2*words : 3*words : 3*words]
		r.saReady = bm[3*words : 4*words : 4*words]
	}
	for i := range r.allocPend {
		r.allocPend[i] = 0
		r.saActive[i] = 0
		r.vaParked[i] = 0
	}
	r.vaParkedCount = 0
	if cap(r.slotOut) < len(r.flat) {
		r.slotOut = make([]int16, len(r.flat))
	}
	r.slotOut = r.slotOut[:len(r.flat)]
	for slot := range r.flat {
		vc := r.flat[slot].vc
		r.slotOut[slot] = 0
		switch {
		case vc.Active:
			r.slotOut[slot] = int16(vc.OutPort)
			r.saActive[slot>>6] |= 1 << (uint(slot) & 63)
		case !vc.Buf.Empty():
			vc.cacheHead(vc.Buf.frontRef())
			r.allocPend[slot>>6] |= 1 << (uint(slot) & 63)
		}
	}
	// Forgetting parked state is always safe: an unparked slot is revisited,
	// fails (or succeeds) exactly as the dense scan would, and re-parks.
	copy(r.saReady, r.saActive)
	for _, out := range r.Out {
		out.heldMask = 0
		for v, h := range out.Held {
			if h {
				out.heldMask |= 1 << uint(v)
			}
		}
		if len(out.parked) != words {
			out.parked = make([]uint64, words)
		}
		for i := range out.parked {
			out.parked[i] = 0
		}
		if len(out.waitSlot) != len(out.Credits) {
			out.waitSlot = make([]int32, len(out.Credits))
		}
		for i := range out.waitSlot {
			out.waitSlot[i] = -1
		}
	}
	r.inBudgeted = 0
	for _, in := range r.In {
		if in.DrainBudget > 0 {
			r.inBudgeted++
		}
	}
	if cap(r.outBase) < len(r.Out) {
		r.outBase = make([]int, len(r.Out))
	}
	r.outBase = r.outBase[:len(r.Out)]
	r.outDyn = r.outDyn[:0]
	r.outAvailBase = 0
	for i, out := range r.Out {
		switch {
		case out.Link == nil:
			r.outBase[i] = r.ejBW
		case out.Link.Adapter != nil || out.Link.retry != nil:
			r.outBase[i] = 0
			r.outDyn = append(r.outDyn, int32(i))
			continue
		default:
			r.outBase[i] = out.Link.Bandwidth
		}
		if r.outBase[i] > 0 {
			r.outAvailBase++
		}
	}
}

// markPend flags a flattened slot as needing RC+VA.
func (r *Router) markPend(slot int) {
	r.allocPend[slot>>6] |= 1 << (uint(slot) & 63)
}

// cacheHead denormalizes the packet fields of f — the head flit that just
// became the front of an inactive VC — into the slot state (see the
// VCState field docs). Every site where a head reaches the front calls it:
// delivery into an empty inactive buffer (deliver/deliverRun), direct-link
// publication (commitDirect), injection (via cacheHeadPkt), tail release
// with a successor queued (saSlot/saSlotFast) and rebuildWork. The
// non-head panic retained from the dense scans fires here, where the flit
// is already in hand.
func (vc *VCState) cacheHead(f *Flit) {
	if f.Seq != 0 {
		panic(fmt.Sprintf("network: non-head flit (pkt %d seq %d) at front of idle VC", f.Pkt.ID, f.Seq))
	}
	vc.cacheHeadPkt(f.Pkt)
}

// cacheHeadPkt is cacheHead for sites that construct the head flit
// themselves (injection: sequence 0 by construction).
func (vc *VCState) cacheHeadPkt(pkt *Packet) {
	vc.headSeq = 0
	vc.headLen = int32(pkt.Length)
	vc.headDst = pkt.Dst
	vc.headPktID = pkt.ID
	vc.headClass = pkt.Class
	vc.headRestricted = pkt.Restricted
}

// parkVA moves a slot whose VC allocation just failed from allocPend to
// vaParked, watching every output port in cands (the failure can only be
// undone by a credit arrival or VC release on one of them). Idempotent: a
// slot re-marked by a mid-wait flit delivery re-parks without recounting.
func (r *Router) parkVA(slot int, cands []Candidate) {
	wi, bit := slot>>6, uint64(1)<<(uint(slot)&63)
	r.allocPend[wi] &^= bit
	if r.vaParked[wi]&bit == 0 {
		r.vaParked[wi] |= bit
		r.vaParkedCount++
	}
	for i := range cands {
		r.Out[cands[i].Port].parked[wi] |= bit
	}
}

// unparkPort returns every slot parked on out to allocPend, called on the
// two events that can flip a VA failure there: a credit arrival and an
// output-VC release. Slots watching several ports are unparked by the
// first event and may leave stale bits in the other ports' masks; the
// vaParked intersection filters those (and bits of since-granted slots)
// out, and the mask reset drops them for good.
func (r *Router) unparkPort(out *OutPort) {
	for i, w := range out.parked {
		if w == 0 {
			continue
		}
		out.parked[i] = 0
		if m := w & r.vaParked[i]; m != 0 {
			r.allocPend[i] |= m
			r.vaParked[i] &^= m
			r.vaParkedCount -= bits.OnesCount64(m)
		}
	}
}

// deliver buffers a flit arriving from the input link at port/VC.
func (r *Router) deliver(inPort int, f Flit) {
	vc := &r.In[inPort].VCs[f.VC]
	wasEmpty := vc.Buf.Empty()
	if !vc.Buf.Push(f) {
		panic(fmt.Sprintf("network: input buffer overflow at node %d port %d vc %d (credit protocol violated)", r.ID, inPort, f.VC))
	}
	r.buffered++
	slot := inPort*r.slotVCs + int(f.VC)
	if !vc.Active {
		if wasEmpty {
			vc.cacheHead(&f)
		}
		r.markPend(slot)
	} else {
		// Refill of an active VC: return it to the switch-stage ready
		// list (saSlotFast drops drained slots; see its empty check).
		r.saReady[slot>>6] |= 1 << (uint(slot) & 63)
	}
}

// deliverRun buffers a link's whole per-cycle arrival batch at inPort,
// grouping consecutive same-VC flits into bulk ring-buffer appends. Flits
// land in the same per-VC order as per-flit delivery (runs are taken left
// to right and different VCs go to different buffers), with one bounds
// check, one pend-mark and one counter update per run instead of per flit.
func (r *Router) deliverRun(inPort int, arr []Flit) {
	in := r.In[inPort]
	for i := 0; i < len(arr); {
		v := arr[i].VC
		j := i + 1
		for j < len(arr) && arr[j].VC == v {
			j++
		}
		vc := &in.VCs[v]
		wasEmpty := vc.Buf.Empty()
		if !vc.Buf.PushRun(arr[i:j]) {
			panic(fmt.Sprintf("network: input buffer overflow at node %d port %d vc %d (credit protocol violated)", r.ID, inPort, v))
		}
		slot := inPort*r.slotVCs + int(v)
		if !vc.Active {
			if wasEmpty {
				vc.cacheHead(&arr[i])
			}
			r.markPend(slot)
		} else {
			r.saReady[slot>>6] |= 1 << (uint(slot) & 63)
		}
		i = j
	}
	r.buffered += len(arr)
}

// tickContext carries the per-worker accumulation state of one router
// tick, so sequential and parallel stepping share one code path. reference
// selects the retained naive tick (full scans, per-cycle Route) used by
// the bit-identity oracle.
type tickContext struct {
	net       *Network
	scratch   *workerScratch
	reference bool
}

// tickCtx performs RC, VA and SA for one cycle (Sec. 7.1: all three
// complete in a single cycle at zero load).
func (r *Router) tickCtx(ctx *tickContext) {
	if r.buffered == 0 {
		return
	}
	if ctx.reference {
		r.tickReference(ctx)
		return
	}

	// Slots parked across this cycle fail VA by construction; charge each
	// its per-cycle failure statistic in one addition (the reference tick
	// revisits them and counts one each — same totals every cycle). Phase-1
	// unparks already ran; a phase-2 release unparks after this point and
	// the slot still counts this cycle, exactly like the reference scan
	// that runs before switch allocation.
	if r.vaParkedCount > 0 {
		ctx.scratch.vaFailures += uint64(r.vaParkedCount)
	}

	// --- Stage 1+2: routing computation and VC allocation.
	r.vaStage(ctx)

	// --- Stage 3: switch allocation with per-port budgets.
	r.switchAlloc(ctx)
}

// vaStage runs routing computation and VC allocation for every input VC
// whose front flit is a head without an output allocation. The allocPend
// bitmap yields exactly the slots the dense scan would have acted on, in
// the same ascending order. Split out of tickCtx so BenchmarkAllocate can
// measure the stage in isolation.
func (r *Router) vaStage(ctx *tickContext) {
	for wi, w := range r.allocPend {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			slot := wi<<6 + b
			s := &r.flat[slot]
			// The non-head panic of the dense scan moved to cacheHead: the
			// slot state read here was denormalized from a checked head.
			r.allocate(ctx, slot, int(s.ip), s.vc)
		}
	}
}

// tickReference is the retained naive router tick: a full port×VC rescan
// with Route re-evaluated on every VA retry, exactly the pre-work-list
// engine. It maintains the same incremental state (bitmaps, held masks,
// parking) through the shared helpers so the optimized and reference ticks
// are interchangeable per network, which is what the saturated-state
// bit-identity oracle exercises. Select it with SetReferenceTick before
// the first Step.
func (r *Router) tickReference(ctx *tickContext) {
	for ip, in := range r.In {
		for v := range in.VCs {
			vc := &in.VCs[v]
			if vc.Active || vc.Buf.Empty() {
				continue
			}
			head := vc.Buf.Front()
			if !head.IsHead() {
				panic(fmt.Sprintf("network: node %d port %d vc %d: non-head flit (pkt %d seq %d) at front of idle VC", r.ID, ip, v, head.Pkt.ID, head.Seq))
			}
			r.allocateReference(ctx, ip*r.slotVCs+v, ip, vc, head.Pkt)
		}
	}
	r.switchAlloc(ctx)
}

// grantVC commits a successful VC allocation for the slot. The head cache
// (headSeq 0, headLen) was populated by cacheHead when the head reached
// the front, so the switch stage starts from it unchanged.
func (r *Router) grantVC(slot int, vc *VCState, port int, outVC VCID) {
	vc.Active, vc.OutPort, vc.OutVC = true, port, outVC
	r.slotOut[slot] = int16(port)
	r.activeVCs++
	r.allocPend[slot>>6] &^= 1 << (uint(slot) & 63)
	r.saActive[slot>>6] |= 1 << (uint(slot) & 63)
	r.saReady[slot>>6] |= 1 << (uint(slot) & 63)
}

// vaFail records a VC-allocation failure (the retry happens next cycle).
// When the routing level guarantees the retry would recompute the same
// candidates, the slot parks on the candidate ports instead of rescanning
// every cycle.
func (r *Router) vaFail(ctx *tickContext, slot int, vc *VCState, pktID uint64, restricted bool, cands []Candidate) {
	vc.candsPkt, vc.candsRestricted = pktID, restricted
	ctx.scratch.vaFailures++
	if ctx.net.stability >= RouteRetryStable {
		r.parkVA(slot, cands)
	}
}

// allocate runs RC+VA for the packet at the front of vc.
//
// Hot-path structure (all bit-identical to allocateReference):
//   - a failing slot parks on the output ports its candidates name until a
//     credit arrival or output-VC release there can change the outcome
//     (vaFail/parkVA/unparkPort), so retries are not even visited;
//   - RoutePure algorithms read candidates from the route LUT;
//   - RouteRetryStable algorithms reuse the candidate set cached on the
//     VC while the same packet waits with an unchanged Restricted flag;
//   - RouteDynamic algorithms re-invoke Route every cycle.
func (r *Router) allocate(ctx *tickContext, slot, inPort int, vc *VCState) {
	net := ctx.net
	if net.LivelockHopBound > 0 && !vc.headRestricted {
		if pkt := vc.Buf.FrontPkt(); pkt.Hops() > net.LivelockHopBound {
			pkt.Restricted = true
			vc.headRestricted = true
		}
	}
	if vc.headDst == r.ID {
		// Ejection: always allocatable; rate-limited in SA.
		r.grantVC(slot, vc, r.EjectPort, 0)
		return
	}
	if wi, bit := slot>>6, uint64(1)<<(uint(slot)&63); r.vaParked[wi]&bit != 0 {
		// The slot is parked (so no watched output changed since its last
		// failure) but a mid-wait flit delivery re-marked it pending: the
		// retry would fail identically, and the bulk accounting in tickCtx
		// already charged it this cycle. Drop the spurious mark. The key
		// check guards the (contract-violating, e.g. a LivelockHopBound
		// change mid-run) case where the packet state moved under a parked
		// slot: unpark and rescan.
		if vc.candsPkt == vc.headPktID && vc.candsRestricted == vc.headRestricted {
			r.allocPend[wi] &^= bit
			return
		}
		r.vaParked[wi] &^= bit
		r.vaParkedCount--
	}
	var cands []Candidate
	var adaptivePorts uint64
	switch {
	case net.lut != nil:
		cands, adaptivePorts = net.lut.lookupFrom(r.lutBase, vc.headDst, vc.headRestricted)
	case net.stability >= RouteRetryStable && vc.candsPkt == vc.headPktID && vc.candsRestricted == vc.headRestricted:
		cands = vc.cands
		adaptivePorts = adaptiveMask(cands)
	default:
		pkt := vc.Buf.FrontPkt()
		cands = net.Routing.Route(net, r, inPort, pkt, r.cands[:0])
		r.cands = cands[:0] // keep capacity
		// A RouteRetryStable function may set Restricted (part of its
		// reuse key); re-sync the denormalized copy.
		vc.headRestricted = pkt.Restricted
		if net.stability >= RouteRetryStable {
			vc.cands = append(vc.cands[:0], cands...)
			vc.candsPkt, vc.candsRestricted = pkt.ID, pkt.Restricted
			cands = vc.cands
		}
		adaptivePorts = adaptiveMask(cands)
	}
	if len(cands) == 0 {
		panic(fmt.Sprintf("network: routing %q returned no candidates at node %d for packet %d -> %d", net.Routing.Name(), r.ID, vc.headPktID, vc.headDst))
	}

	sawAdaptive := false
	for i := range cands {
		c := &cands[i]
		out := r.Out[c.Port]
		if out.Link == nil {
			r.grantVC(slot, vc, c.Port, 0)
			return
		}
		if !c.Escape {
			sawAdaptive = true
		}
		// Pick the allowed free output VC with the most credits, under
		// virtual cut-through admission (see allocateReference for the
		// rationale). elig masks out held VCs in one operation; the bit
		// scans below preserve the exact class-affinity tie-breaks of the
		// reference scan: latency-sensitive packets take the highest
		// eligible VC, bulk throughput the lowest, other classes the
		// lowest among those with the most credits.
		need := min(int(vc.headLen), out.Depth)
		if net.Cfg.WormholeAdmission {
			need = 1
		}
		elig := c.VCMask & out.vcLimit &^ out.heldMask
		best, bestCred := -1, need-1
		switch vc.headClass {
		case ClassThroughput:
			for m := elig; m != 0; m &= m - 1 {
				ov := bits.TrailingZeros16(m)
				if out.Credits[ov] >= need {
					best = ov
					break
				}
			}
		case ClassLatencySensitive:
			for m := elig; m != 0; {
				ov := bits.Len16(m) - 1
				m &^= 1 << uint(ov)
				if out.Credits[ov] >= need {
					best = ov
					break
				}
			}
		default:
			for m := elig; m != 0; m &= m - 1 {
				ov := bits.TrailingZeros16(m)
				if cr := out.Credits[ov]; cr > bestCred {
					best, bestCred = ov, cr
				}
			}
		}
		if best < 0 {
			continue
		}
		if c.Escape && sawAdaptive && (c.Port >= 64 || adaptivePorts&(1<<uint(c.Port)) == 0) {
			// Livelock channel-switch restriction (Sec. 6.2): see
			// allocateReference. Written through to the canonical Packet.
			vc.Buf.FrontPkt().Restricted = true
			vc.headRestricted = true
		}
		out.setHeld(best)
		r.grantVC(slot, vc, c.Port, VCID(best))
		return
	}
	// Nothing allocatable this cycle; retry next cycle.
	r.vaFail(ctx, slot, vc, vc.headPktID, vc.headRestricted, cands)
}

// allocateReference is the retained naive RC+VA: Route re-evaluated every
// cycle, per-VC credit scan over the Held array. It is the reference the
// optimized allocate is verified against and must not be "optimized".
func (r *Router) allocateReference(ctx *tickContext, slot, inPort int, vc *VCState, pkt *Packet) {
	net := ctx.net
	if net.LivelockHopBound > 0 && !pkt.Restricted && pkt.Hops() > net.LivelockHopBound {
		pkt.Restricted = true
	}
	var cands []Candidate
	if pkt.Dst == r.ID {
		cands = append(r.cands[:0], Candidate{Port: r.EjectPort, VCMask: 1, Escape: true})
	} else {
		cands = net.Routing.Route(net, r, inPort, pkt, r.cands[:0])
		if len(cands) == 0 {
			panic(fmt.Sprintf("network: routing %q returned no candidates at node %d for packet %d -> %d", net.Routing.Name(), r.ID, pkt.ID, pkt.Dst))
		}
	}
	r.cands = cands[:0] // keep capacity

	sawAdaptive := false
	adaptivePorts := uint64(0)
	for _, c := range cands {
		if !c.Escape && c.Port < 64 {
			adaptivePorts |= 1 << uint(c.Port)
		}
	}
	for _, c := range cands {
		out := r.Out[c.Port]
		if out.Link == nil {
			// Ejection: always allocatable; rate-limited in SA.
			r.grantVC(slot, vc, c.Port, 0)
			return
		}
		if !c.Escape {
			sawAdaptive = true
		}
		// Pick the allowed free output VC with the most credits. Admission
		// is virtual cut-through: the downstream buffer must have room for
		// the whole packet, which (with buffers ≥ packet length, as in all
		// Table 2 configurations) makes the escape-channel constructions
		// of the routing algorithms deadlock-free without indirect-
		// dependency caveats.
		need := min(pkt.Length, out.Depth)
		if net.Cfg.WormholeAdmission {
			need = 1
		}
		best, bestCred := -1, need-1
		for ov := 0; ov < len(out.Credits); ov++ {
			if c.VCMask&(1<<uint(ov)) == 0 || out.Held[ov] {
				continue
			}
			cr := out.Credits[ov]
			if cr < need {
				continue
			}
			if best < 0 {
				best, bestCred = ov, cr
				continue
			}
			// Class-based VC affinity: latency-sensitive packets prefer
			// the highest eligible VC, bulk throughput the lowest, so the
			// two classes avoid sharing a VC (per-VC delivery order would
			// otherwise couple control latency to bulk transfers at
			// heterogeneous interfaces). Other classes take the VC with
			// the most credits.
			switch pkt.Class {
			case ClassLatencySensitive:
				best, bestCred = ov, cr // keep scanning upward
			case ClassThroughput:
				// keep the first (lowest) eligible VC
			default:
				if cr > bestCred {
					best, bestCred = ov, cr
				}
			}
		}
		if best < 0 {
			continue
		}
		if c.Escape && sawAdaptive && (c.Port >= 64 || adaptivePorts&(1<<uint(c.Port)) == 0) {
			// Livelock channel-switch restriction (Sec. 6.2): the packet
			// fell back to the escape subnetwork because the adaptive
			// channels on its minimal paths were congested; from now on it
			// may only use adaptive channels consistent with the baseline
			// routing function. Taking the escape VC of a port that is
			// itself an adaptive candidate is not a fallback — the physical
			// direction stays adaptive-consistent — so it does not restrict
			// the packet.
			pkt.Restricted = true
		}
		out.setHeld(best)
		r.grantVC(slot, vc, c.Port, VCID(best))
		return
	}
	// Nothing allocatable this cycle; retry next cycle.
	r.vaFail(ctx, slot, vc, pkt.ID, pkt.Restricted, cands)
}

// switchAlloc grants crossbar passage to active input VCs, respecting link
// accept rates, credits, per-input drain budgets and the regular-vs-
// heterogeneous crossbar constraints. The optimized arbitration walks only
// the saActive bitmap, starting from the round-robin pointer and wrapping,
// which visits exactly the slots the flattened scan would have granted —
// in the same order; the reference tick keeps the dense scan.
func (r *Router) switchAlloc(ctx *tickContext) {
	if r.activeVCs == 0 {
		return
	}
	nOut, nIn := len(r.Out), len(r.In)
	if cap(r.outSlots) < nOut || cap(r.inUsed) < nIn {
		// One backing array: the four per-cycle budget counters of a
		// typical-radix router fit in two cache lines instead of four
		// scattered allocations.
		sa := make([]int, 2*nOut+2*nIn)
		r.outSlots = sa[:nOut:nOut]
		r.outVCs = sa[nOut : 2*nOut : 2*nOut]
		r.inUsed = sa[2*nOut : 2*nOut+nIn : 2*nOut+nIn]
		r.inVCs = sa[2*nOut+nIn:]
	}
	outSlots, outVCs := r.outSlots[:nOut], r.outVCs[:nOut]
	inUsed, inVCs := r.inUsed[:nIn], r.inVCs[:nIn]
	copy(outSlots, r.outBase)
	outAvail := r.outAvailBase
	for _, i := range r.outDyn {
		outSlots[i] = r.Out[i].Link.FreeSlots()
		if outSlots[i] > 0 {
			outAvail++
		}
	}
	for i := range outVCs {
		outVCs[i] = 0
	}
	for i := range inUsed {
		inUsed[i] = 0
		inVCs[i] = 0
	}

	// Flattened round-robin over (input port, VC). rr stays < total except
	// right after a topology rebuild shrank flat, so the wrap is a compare,
	// not a division.
	total := len(r.flat)
	start := r.rr
	if start >= total {
		start %= total
	}
	r.rr = start + 1
	if r.rr == total {
		r.rr = 0
	}

	if ctx.reference {
		// Reference: iterate every slot starting from the round-robin
		// pointer, moving flits one at a time.
		for off := 0; off < total; off++ {
			slot := (start + off) % total
			r.saSlot(ctx, slot, outSlots, outVCs, inUsed, inVCs)
		}
		return
	}

	// Optimized: iterate the set bits of saReady (active slots not parked
	// on an empty credit counter) from the round-robin pointer, wrapping
	// once. Bits at or after start first (high part of the start word
	// masked), then the bits before start. The scan stops as soon as no
	// output or no input can take another grant (see outAvail) — regular
	// crossbars hit that after a handful of grants, long before the
	// ready-slot list is exhausted.
	r.outAvail, r.inAvail = outAvail, r.inBudgeted
	startWord, startBit := start>>6, uint(start)&63
	w := r.saReady[startWord] &^ (1<<startBit - 1)
	for wi := startWord; ; {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			r.saSlotFast(ctx, wi<<6+b, outSlots, outVCs, inUsed, inVCs)
			if r.outAvail == 0 || r.inAvail == 0 {
				return
			}
		}
		wi++
		if wi == len(r.saReady) {
			break
		}
		w = r.saReady[wi]
	}
	for wi := 0; wi <= startWord; wi++ {
		w = r.saReady[wi]
		if wi == startWord {
			w &= 1<<startBit - 1
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			r.saSlotFast(ctx, wi<<6+b, outSlots, outVCs, inUsed, inVCs)
			if r.outAvail == 0 || r.inAvail == 0 {
				return
			}
		}
	}
}

// saSlotFast is saSlot with the per-flit movement loop replaced by one
// bulk run transfer. The key structural fact: an output VC is Held by
// exactly one packet until its tail passes, so the flits of a packet are
// contiguous in its input VC buffer and the grantable run length is
// computable up front — min(budget, buffered flits, flits to the tail).
// The whole run then moves with one credit-batch, one counter update and
// one bulk link append instead of per-flit calls. Per-flit energy
// additions keep the reference path's exact field-by-field order (float
// addition order is part of bit-identity).
func (r *Router) saSlotFast(ctx *tickContext, slot int, outSlots, outVCs, inUsed, inVCs []int) {
	// The granted output port is denormalized into the compact slotOut
	// slab, so a slot whose output is already spent this cycle is
	// rejected before its VCState cache line is ever touched. The
	// reorder is behavior-neutral: every rejecting check is side-effect
	// free, and the empty-slot saReady clearing below is an idempotent
	// optimization the refill sites never depend on.
	op := int(r.slotOut[slot])
	if outSlots[op] <= 0 {
		return
	}
	out := r.Out[op]
	if !out.Interface && outVCs[op] >= 1 {
		return
	}
	s := &r.flat[slot]
	vc := s.vc
	if !vc.Active || vc.Buf.Empty() {
		// An active slot drained empty mid-packet cannot progress until
		// its next flit arrives; the refill sites (deliver, deliverRun,
		// commitDirect, injection) put it back. Clearing here also
		// self-heals the saActive seed rebuildWork copies into saReady.
		r.saReady[slot>>6] &^= 1 << (uint(slot) & 63)
		return
	}
	in := s.in
	ip := int(s.ip)
	if inUsed[ip] >= in.DrainBudget {
		return
	}
	if !in.Interface && inVCs[ip] >= 1 {
		return
	}
	if out.slow {
		// Adapter and retry links do per-flit protocol work in Accept;
		// keep the per-flit path for them.
		r.saSlot(ctx, slot, outSlots, outVCs, inUsed, inVCs)
		return
	}
	budget := min(outSlots[op], in.DrainBudget-inUsed[ip])
	if out.Link != nil {
		cr := out.Credits[vc.OutVC]
		if cr == 0 {
			// Credit-starved: the held output VC cannot accept a flit until
			// its refilling credit completes, and only this slot drains that
			// counter — drop off the ready list until then (see saReady).
			r.saReady[slot>>6] &^= 1 << (uint(slot) & 63)
			out.waitSlot[vc.OutVC] = int32(slot)
			return
		}
		budget = min(budget, cr)
	}
	net := ctx.net
	headSeq := vc.headSeq
	remain := int(vc.headLen - headSeq) // flits up to and including the tail
	n := min(budget, vc.Buf.Len(), remain)
	tailSent := n == remain
	a, b := vc.Buf.PeekRun(n)
	routerPJ := net.Cfg.RouterPJPerFlit
	if in.Link != nil {
		in.Link.ReturnCredits(VCID(s.v), n)
		if !in.Link.crQueued {
			in.Link.crQueued = true
			ctx.scratch.wokeCr = append(ctx.scratch.wokeCr, int32(in.Link.ID))
		}
	}
	if out.Link == nil {
		// Ejection: fold each flit's accumulated energy into the packet in
		// arrival order.
		pkt := vc.Buf.FrontPkt()
		for _, chunk := range [2][]Flit{a, b} {
			for i := range chunk {
				f := &chunk[i]
				pkt.EnergyPJ += f.EnergyPJ + routerPJ
				pkt.EnergyOnChipPJ += f.EnergyOnChipPJ + routerPJ
				pkt.EnergyIfacePJ += f.EnergyIfacePJ
			}
		}
		ctx.scratch.grantsByKind[KindLocal] += uint64(n)
		if tailSent {
			ctx.scratch.flitsOut += int64(pkt.Length)
			ctx.scratch.pktsOut++
			ctx.scratch.finished = append(ctx.scratch.finished, pkt)
		}
	} else {
		if headSeq == 0 {
			pkt := vc.Buf.FrontPkt()
			switch out.Kind {
			case KindOnChip:
				pkt.HopsOnChip++
			case KindParallel:
				pkt.HopsParallel++
			case KindSerial:
				pkt.HopsSerial++
			case KindHeteroPHY:
				pkt.HopsHetero++
			}
		}
		ctx.scratch.grantsByKind[out.Kind] += uint64(n)
		out.Credits[vc.OutVC] -= n
		if net.Cfg.CheckInvariants && out.Credits[vc.OutVC] < 0 {
			panic("network: negative credits (switch allocation over-granted)")
		}
		if !out.Link.fwdQueued {
			out.Link.fwdQueued = true
			ctx.scratch.wokeFwd = append(ctx.scratch.wokeFwd, int32(out.Link.ID))
		}
		out.Link.AcceptRun(a, b, vc.OutVC, routerPJ)
	}
	vc.Buf.Drop(n)
	vc.headSeq = headSeq + int32(n)
	r.buffered -= n
	if tailSent {
		if out.Link != nil {
			// Freeing an output VC can unblock allocations parked on this
			// port; return them to the pending set (effective next cycle,
			// the same cycle a rescan would first succeed).
			out.clearHeld(vc.OutVC)
			r.unparkPort(out)
		}
		vc.Active = false
		r.activeVCs--
		r.saActive[slot>>6] &^= 1 << (uint(slot) & 63)
		r.saReady[slot>>6] &^= 1 << (uint(slot) & 63)
		if !vc.Buf.Empty() {
			vc.cacheHead(vc.Buf.frontRef())
			r.markPend(slot)
		}
	}
	outSlots[op] -= n
	outVCs[op]++
	if outSlots[op] <= 0 || !out.Interface {
		r.outAvail--
	}
	inUsed[ip] += n
	inVCs[ip]++
	if inUsed[ip] >= in.DrainBudget || !in.Interface {
		r.inAvail--
	}
	ctx.scratch.moved += uint64(n)
}

// saSlot arbitrates one flattened (input port, VC) slot within the current
// switch-allocation pass. Shared by the optimized and reference paths.
func (r *Router) saSlot(ctx *tickContext, slot int, outSlots, outVCs, inUsed, inVCs []int) {
	s := &r.flat[slot]
	vc := s.vc
	if !vc.Active || vc.Buf.Empty() {
		return
	}
	in := s.in
	ip := int(s.ip)
	if inUsed[ip] >= in.DrainBudget {
		return
	}
	if !in.Interface && inVCs[ip] >= 1 {
		return // regular crossbar: one VC per input port per cycle
	}
	op := vc.OutPort
	out := r.Out[op]
	if outSlots[op] <= 0 {
		return
	}
	if !out.Interface && outVCs[op] >= 1 {
		return // regular crossbar: one input VC per output per cycle
	}
	budget := min(outSlots[op], in.DrainBudget-inUsed[ip])
	if out.Link != nil {
		budget = min(budget, out.Credits[vc.OutVC])
	}
	if budget <= 0 {
		return
	}
	pkt := vc.Buf.FrontPkt()
	sent := 0
	for sent < budget && !vc.Buf.Empty() && vc.Buf.FrontPkt() == pkt {
		f := vc.Buf.Pop()
		vc.headSeq++ // keep the head cache in step with per-flit drains
		r.buffered--
		sent++
		r.forward(ctx, in, vc, out, VCID(s.v), f)
		if f.IsTail() {
			// Release the output VC and the input VC allocation. Freeing an
			// output VC can unblock allocations parked on this port.
			if out.Link != nil {
				out.clearHeld(vc.OutVC)
				r.unparkPort(out)
			}
			vc.Active = false
			r.activeVCs--
			r.saActive[slot>>6] &^= 1 << (uint(slot) & 63)
			r.saReady[slot>>6] &^= 1 << (uint(slot) & 63)
			if !vc.Buf.Empty() {
				// The next packet's head is already waiting behind the
				// tail: queue it for RC+VA next cycle.
				vc.cacheHead(vc.Buf.frontRef())
				r.markPend(slot)
			}
			break
		}
	}
	if sent > 0 {
		outSlots[op] -= sent
		outVCs[op]++
		inUsed[ip] += sent
		inVCs[ip]++
		ctx.scratch.moved += uint64(sent)
	}
}

// forward moves one granted flit from an input VC to its output.
func (r *Router) forward(ctx *tickContext, in *InPort, vc *VCState, out *OutPort, inVC VCID, f Flit) {
	net := ctx.net
	pkt := f.Pkt
	f.EnergyPJ += net.Cfg.RouterPJPerFlit
	f.EnergyOnChipPJ += net.Cfg.RouterPJPerFlit
	// Return a credit to the upstream router and put the link's credit
	// pipeline on the wake list; the scratch list is folded into the
	// engine's per-shard lists at the merge barrier.
	if in.Link != nil {
		in.Link.ReturnCredit(inVC)
		if !in.Link.crQueued {
			in.Link.crQueued = true
			ctx.scratch.wokeCr = append(ctx.scratch.wokeCr, int32(in.Link.ID))
		}
	}
	if out.Link == nil {
		// Ejection: fold the flit's accumulated energy into the packet
		// (the destination router is the packet's single writer here).
		pkt.EnergyPJ += f.EnergyPJ
		pkt.EnergyOnChipPJ += f.EnergyOnChipPJ
		pkt.EnergyIfacePJ += f.EnergyIfacePJ
		ctx.scratch.grantsByKind[KindLocal]++
		if f.IsTail() {
			ctx.scratch.flitsOut += int64(pkt.Length)
			ctx.scratch.pktsOut++
			ctx.scratch.finished = append(ctx.scratch.finished, pkt)
		}
		return
	}
	if f.IsHead() {
		switch out.Kind {
		case KindOnChip:
			pkt.HopsOnChip++
		case KindParallel:
			pkt.HopsParallel++
		case KindSerial:
			pkt.HopsSerial++
		case KindHeteroPHY:
			pkt.HopsHetero++
		}
	}
	ctx.scratch.grantsByKind[out.Kind]++
	out.Credits[vc.OutVC]--
	if net.Cfg.CheckInvariants && out.Credits[vc.OutVC] < 0 {
		panic("network: negative credits (switch allocation over-granted)")
	}
	f.VC = vc.OutVC
	if !out.Link.fwdQueued {
		out.Link.fwdQueued = true
		ctx.scratch.wokeFwd = append(ctx.scratch.wokeFwd, int32(out.Link.ID))
	}
	out.Link.Accept(net.Now, f)
}
