package bench

import (
	"fmt"
	"testing"
)

// TestAllocChurnReportShape pins the churn matrix: every occupancy level
// yields one rmm free-stack point per concurrency level, each with the one
// persist pair per operation the allocator promises.
func TestAllocChurnReportShape(t *testing.T) {
	rep := AllocChurnReport([]int{2}, 1)
	occ := allocChurnOccupancies()
	if len(rep.Points) != len(occ) {
		t.Fatalf("got %d points, want %d", len(rep.Points), len(occ))
	}
	for i, pt := range rep.Points {
		if want := fmt.Sprintf("alloc-churn-freestack@%d", occ[i]); pt.Op != want {
			t.Errorf("point %d: op %q, want %q", i, pt.Op, want)
		}
		if pt.Goroutines != 2 || pt.Mode != "fast" {
			t.Errorf("point %d: %+v, want goroutines=2 mode=fast", i, pt)
		}
		if pt.NsPerOp <= 0 {
			t.Errorf("point %d: ns_per_op %v", i, pt.NsPerOp)
		}
		// One bitmap-bit persist pair per operation is the allocator's
		// durability contract (see docs/allocator.md).
		if pt.PWBsPerOp != 1 || pt.PSyncsPerOp != 1 {
			t.Errorf("point %d (%s): %v pwbs, %v psyncs per op, want 1 and 1",
				i, pt.Op, pt.PWBsPerOp, pt.PSyncsPerOp)
		}
	}
}
