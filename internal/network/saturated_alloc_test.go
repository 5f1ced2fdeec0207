package network_test

import (
	"testing"

	"heteroif/internal/network/netbench"
)

// TestSaturatedStepZeroAllocs asserts the steady-state guarantee the
// kernel manifest records for the saturated mesh cases: once the engine
// is warm (every scratch slice and work list at steady capacity), a
// sequential Step under full saturation load allocates nothing. Packet
// churn is covered too — finished packets are recycled through the free
// list, so even the injection path stays off the heap.
func TestSaturatedStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job covers this")
	}
	net := netbench.BuildMesh(8)
	sat := netbench.Saturate(net)
	if avg := testing.AllocsPerRun(500, func() {
		sat.Drive(net.Now)
		net.Step()
	}); avg != 0 {
		t.Errorf("saturated sequential Step allocates %.2f times per cycle, want 0", avg)
	}
}

// TestSaturatedParallelStepZeroAllocs is the parallel twin: saturated
// stepping across 2 shards must also be allocation-free in steady state.
// On a single-CPU host the shards run inline through the same dispatch
// and merge code; with HETEROIF_FORCE_PARALLEL=1 (or real CPUs) the
// worker-goroutine path is measured instead.
func TestSaturatedParallelStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job covers this")
	}
	net := netbench.BuildMesh(8)
	net.SetWorkers(2)
	sat := netbench.Saturate(net)
	if avg := testing.AllocsPerRun(500, func() {
		sat.Drive(net.Now)
		net.Step()
	}); avg != 0 {
		t.Errorf("saturated parallel Step allocates %.2f times per cycle, want 0", avg)
	}
}
