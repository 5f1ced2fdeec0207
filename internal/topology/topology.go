// Package topology constructs the paper's multi-chiplet interconnection
// systems: chiplets with a 2D-mesh network-on-chip and interface nodes on
// every edge (Fig. 9a), wired into the five evaluated global systems
// (Figs. 6 and 10):
//
//   - uniform-parallel 2D-mesh — parallel IF between adjacent chiplets;
//   - uniform-serial 2D-torus — serial IF neighbors plus serial wraparounds;
//   - hetero-PHY 2D-torus — hetero-PHY (bonded parallel+serial) neighbors
//     plus serial-only wraparounds;
//   - uniform-serial hypercube — chiplets connected only by serial links in
//     a hypercube (the method of Feng et al. HPCA'23 [30]);
//   - hetero-channel — parallel-IF mesh neighbors plus an independent
//     serial-IF hypercube.
package topology

import (
	"fmt"

	"heteroif/internal/core"
	"heteroif/internal/network"
)

// System enumerates the evaluated interconnection systems.
type System uint8

const (
	// UniformParallelMesh is the parallel-IF-only 2D-mesh baseline.
	UniformParallelMesh System = iota
	// UniformSerialTorus is the serial-IF-only 2D-torus baseline.
	UniformSerialTorus
	// HeteroPHYTorus is the hetero-PHY 2D-torus of Fig. 6(a).
	HeteroPHYTorus
	// UniformSerialHypercube is the serial-IF-only hypercube baseline.
	UniformSerialHypercube
	// HeteroChannel is the mesh+hypercube system of Fig. 10.
	HeteroChannel
)

// String returns the system name used in experiment output.
func (s System) String() string {
	switch s {
	case UniformParallelMesh:
		return "uniform-parallel-mesh"
	case UniformSerialTorus:
		return "uniform-serial-torus"
	case HeteroPHYTorus:
		return "hetero-phy-torus"
	case UniformSerialHypercube:
		return "uniform-serial-hypercube"
	case HeteroChannel:
		return "hetero-channel"
	default:
		return fmt.Sprintf("system(%d)", uint8(s))
	}
}

// Spec describes one multi-chiplet system to build.
type Spec struct {
	System System
	// ChipletsX×ChipletsY chiplets, each an NodesX×NodesY mesh.
	ChipletsX, ChipletsY int
	NodesX, NodesY       int
	// Policy is the hetero-PHY adapter scheduling policy (HeteroPHYTorus
	// only); nil means balanced.
	Policy core.Policy
}

// Validate reports specification errors.
func (s *Spec) Validate() error {
	if s.ChipletsX <= 0 || s.ChipletsY <= 0 || s.NodesX <= 0 || s.NodesY <= 0 {
		return fmt.Errorf("topology: dimensions must be positive, got %d×%d chiplets of %d×%d", s.ChipletsX, s.ChipletsY, s.NodesX, s.NodesY)
	}
	if s.System == UniformSerialHypercube || s.System == HeteroChannel {
		n := s.ChipletsX * s.ChipletsY
		if n&(n-1) != 0 {
			return fmt.Errorf("topology: hypercube systems need a power-of-two chiplet count, got %d", n)
		}
		if dims(n) > 4*(s.NodesX+s.NodesY)-4 && n > 1 {
			return fmt.Errorf("topology: chiplet perimeter too small for %d cube dimensions", dims(n))
		}
	}
	return nil
}

func dims(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	return d
}

// PortInfo describes one router output port for the routing algorithms.
type PortInfo struct {
	Dest network.NodeID
	Kind network.LinkKind
	// CubeDim is the hypercube dimension of a serial cube link, or -1.
	CubeDim int8
	// Wrap marks torus wraparound links.
	Wrap bool
	// Dead marks a failed channel (fault injection, Sec. 9): routing
	// functions stop emitting candidates for it.
	Dead bool
}

// Topo is the built system plus the geometric metadata routing needs.
type Topo struct {
	Spec

	// GX and GY are the global node-grid dimensions
	// (ChipletsX×NodesX by ChipletsY×NodesY).
	GX, GY int
	// N is the total node count.
	N int
	// CubeDims is the hypercube dimensionality (0 for mesh/torus systems).
	CubeDims int

	// OutPorts[node][port] describes each router output port; entry 0 is
	// the local ejection port (zero PortInfo).
	OutPorts [][]PortInfo

	// CubePorts[chiplet*CubeDims+dim] lists the nodes owning the
	// chiplet's cube links for that dimension (one per edge node assigned
	// to the dimension).
	CubePorts [][]network.NodeID

	// Adapters lists the hetero-PHY adapters, for stats collection.
	Adapters []*core.HeteroPHYAdapter
}

// NodeAt returns the node at global coordinates (gx, gy).
func (t *Topo) NodeAt(gx, gy int) network.NodeID {
	return network.NodeID(gy*t.GX + gx)
}

// Coord returns the global coordinates of a node.
func (t *Topo) Coord(id network.NodeID) (gx, gy int) {
	return int(id) % t.GX, int(id) / t.GX
}

// Chiplet returns the chiplet grid coordinates of a node.
func (t *Topo) Chiplet(id network.NodeID) (cx, cy int) {
	gx, gy := t.Coord(id)
	return gx / t.NodesX, gy / t.NodesY
}

// ChipletID returns the scalar chiplet index (row-major), the hypercube
// address.
func (t *Topo) ChipletID(id network.NodeID) int {
	cx, cy := t.Chiplet(id)
	return cy*t.ChipletsX + cx
}

// ChipletOrigin returns the global coordinates of chiplet c's node (0,0).
func (t *Topo) ChipletOrigin(c int) (gx, gy int) {
	cx, cy := c%t.ChipletsX, c/t.ChipletsX
	return cx * t.NodesX, cy * t.NodesY
}

// ChipletLeaders returns one representative node per chiplet — the node
// nearest each chiplet's center — with chiplets visited in serpentine
// order (left-to-right on even chiplet rows, right-to-left on odd ones).
// Consecutive leaders are therefore physically adjacent chiplets, which
// makes the slice a natural ring order for collective programs: every
// ring hop crosses only one D2D interface boundary instead of striding
// the whole package.
func (t *Topo) ChipletLeaders() []network.NodeID {
	leaders := make([]network.NodeID, 0, t.ChipletsX*t.ChipletsY)
	for cy := 0; cy < t.ChipletsY; cy++ {
		for i := 0; i < t.ChipletsX; i++ {
			cx := i
			if cy%2 == 1 {
				cx = t.ChipletsX - 1 - i
			}
			gx := cx*t.NodesX + t.NodesX/2
			gy := cy*t.NodesY + t.NodesY/2
			leaders = append(leaders, t.NodeAt(gx, gy))
		}
	}
	return leaders
}

// SameChiplet reports whether two nodes are on the same chiplet.
func (t *Topo) SameChiplet(a, b network.NodeID) bool {
	return t.ChipletID(a) == t.ChipletID(b)
}

// MeshDistance is the hop distance between two nodes on the global 2D mesh.
func (t *Topo) MeshDistance(a, b network.NodeID) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// TorusDistance is the hop distance between two nodes on the global 2D
// torus (mesh plus per-row/per-column wraparound links).
func (t *Topo) TorusDistance(a, b network.NodeID) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	dx := abs(ax - bx)
	dy := abs(ay - by)
	return min(dx, t.GX-dx) + min(dy, t.GY-dy)
}

// ChipletMeshHops is #H_P of Eq. 5: chiplet-level mesh hop count between the
// chiplets of two nodes.
func (t *Topo) ChipletMeshHops(a, b network.NodeID) int {
	acx, acy := t.Chiplet(a)
	bcx, bcy := t.Chiplet(b)
	return abs(acx-bcx) + abs(acy-bcy)
}

// CubeHops is #H_S of Eq. 5: the Hamming distance between the chiplet
// addresses of two nodes.
func (t *Topo) CubeHops(a, b network.NodeID) int {
	x := t.ChipletID(a) ^ t.ChipletID(b)
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// CubeLinkNodes returns the nodes owning chiplet c's cube links for dim.
func (t *Topo) CubeLinkNodes(c, dim int) []network.NodeID {
	if t.CubeDims == 0 {
		return nil
	}
	return t.CubePorts[c*t.CubeDims+dim]
}

// FailLink injects a fault on the channel from node n through output port
// `port` (Sec. 9 "Fault tolerance"). Only channels outside the escape
// subnetwork may fail — torus wraparounds and hypercube cube links on
// systems that retain at least one live link per (chiplet, dimension) —
// because the escape subnetwork must stay connected (Lemma 1). Routing
// algorithms skip dead channels; the adaptive systems keep delivering all
// traffic over the surviving channel diversity.
func (t *Topo) FailLink(n network.NodeID, port int) error {
	if int(n) >= len(t.OutPorts) || port <= 0 || port >= len(t.OutPorts[n]) {
		return fmt.Errorf("topology: no port %d at node %d", port, n)
	}
	p := &t.OutPorts[n][port]
	if p.Dead {
		return nil
	}
	switch {
	case p.Wrap:
		// Wraparounds are purely adaptive: always safe to fail.
	case p.CubeDim >= 0:
		// Cube links participate in the hypercube escape (uniform-serial
		// hypercube) or are fully adaptive (hetero-channel). In both cases
		// at least one live link of the same (chiplet, dim) must remain so
		// minus-first waypoints stay reachable.
		c := t.ChipletID(n)
		live := 0
		for _, owner := range t.CubeLinkNodes(c, int(p.CubeDim)) {
			for i := 1; i < len(t.OutPorts[owner]); i++ {
				q := &t.OutPorts[owner][i]
				if q.CubeDim == p.CubeDim && !q.Dead && !(owner == n && i == port) {
					live++
				}
			}
		}
		if live == 0 {
			return fmt.Errorf("topology: cannot fail the last cube link of chiplet %d dim %d", c, p.CubeDim)
		}
	default:
		return fmt.Errorf("topology: channel %d->%d (%v) belongs to the escape subnetwork and cannot be failed", n, p.Dest, p.Kind)
	}
	p.Dead = true
	return nil
}

// EdgeNodes enumerates a chiplet's boundary nodes clockwise from the origin
// corner, as local (nx, ny) pairs.
func (t *Topo) edgeNodesLocal() [][2]int {
	nx, ny := t.NodesX, t.NodesY
	var out [][2]int
	for x := 0; x < nx; x++ { // top row, left→right
		out = append(out, [2]int{x, 0})
	}
	for y := 1; y < ny; y++ { // right column, top→bottom
		out = append(out, [2]int{nx - 1, y})
	}
	if ny > 1 {
		for x := nx - 2; x >= 0; x-- { // bottom row, right→left
			out = append(out, [2]int{x, ny - 1})
		}
	}
	if nx > 1 {
		for y := ny - 2; y >= 1; y-- { // left column, bottom→top
			out = append(out, [2]int{0, y})
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
