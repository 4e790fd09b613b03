package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"clustersmt/internal/isa"
)

func TestIssueQueueBasics(t *testing.T) {
	q := NewIssueQueue[int](4, 2)
	if q.Capacity() != 4 || q.Len() != 0 || q.Free() != 4 {
		t.Fatal("fresh queue accounting")
	}
	for i := 1; i <= 4; i++ {
		if _, ok := q.Insert(i, i%2); !ok {
			t.Fatalf("insert %d failed", i)
		}
	}
	if _, ok := q.Insert(5, 0); ok {
		t.Fatal("insert into full queue succeeded")
	}
	if q.Occupancy(0) != 2 || q.Occupancy(1) != 2 {
		t.Fatal("occupancy wrong")
	}
}

func TestIssueQueueAgeOrder(t *testing.T) {
	q := NewIssueQueue[int](8, 1)
	for i := 1; i <= 5; i++ {
		q.Insert(i, 0)
	}
	q.Remove(3)
	var got []int
	q.Scan(func(v, _ int) bool {
		got = append(got, v)
		return true
	})
	want := []int{1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("scan %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan %v, want %v (age order violated)", got, want)
		}
	}
}

func TestIssueQueueScanEarlyStop(t *testing.T) {
	q := NewIssueQueue[int](8, 1)
	for i := 1; i <= 5; i++ {
		q.Insert(i, 0)
	}
	n := 0
	q.Scan(func(v, _ int) bool {
		n++
		return v < 2
	})
	if n != 2 {
		t.Errorf("scan visited %d entries, want 2", n)
	}
}

func TestIssueQueueRemove(t *testing.T) {
	q := NewIssueQueue[int](4, 2)
	q.Insert(7, 1)
	if !q.Remove(7) {
		t.Fatal("remove of present payload failed")
	}
	if q.Remove(7) {
		t.Fatal("remove of absent payload succeeded")
	}
	if q.Occupancy(1) != 0 || q.Len() != 0 {
		t.Fatal("accounting after remove")
	}
}

func TestIssueQueueRemoveIf(t *testing.T) {
	q := NewIssueQueue[int](8, 2)
	for i := 1; i <= 6; i++ {
		q.Insert(i, i%2)
	}
	removed := q.RemoveIf(func(v, _ int) bool { return v%2 == 0 })
	if removed != 3 || q.Len() != 3 {
		t.Fatalf("RemoveIf removed %d, len %d", removed, q.Len())
	}
	if q.Occupancy(0) != 0 || q.Occupancy(1) != 3 {
		t.Fatalf("occupancy after RemoveIf: %d/%d", q.Occupancy(0), q.Occupancy(1))
	}
}

func TestPortsClassCompatibility(t *testing.T) {
	var p Ports
	// Three int uops fill all three ports.
	for i := 0; i < 3; i++ {
		if _, ok := p.TryIssue(isa.Int); !ok {
			t.Fatalf("int uop %d rejected", i)
		}
	}
	if _, ok := p.TryIssue(isa.Int); ok {
		t.Fatal("fourth int uop issued")
	}
	p.Reset()
	// Two FP fill ports 0-1; a load still fits on port 2.
	if _, ok := p.TryIssue(isa.Fp); !ok {
		t.Fatal("fp rejected")
	}
	if _, ok := p.TryIssue(isa.Fp); !ok {
		t.Fatal("second fp rejected")
	}
	if _, ok := p.TryIssue(isa.Fp); ok {
		t.Fatal("third fp issued (only 2 fp-capable ports)")
	}
	if !p.HasFree(isa.Load) {
		t.Fatal("port 2 should remain free for memory")
	}
	if port, ok := p.TryIssue(isa.Load); !ok || port != 2 {
		t.Fatalf("load got port %d ok=%v, want port 2", port, ok)
	}
	if p.HasFree(isa.Store) {
		t.Fatal("no memory port should remain")
	}
	if p.Issued() != 3 {
		t.Errorf("issued %d, want 3", p.Issued())
	}
}

func TestPortsMemOnlyPort2(t *testing.T) {
	var p Ports
	if _, ok := p.TryIssue(isa.Store); !ok {
		t.Fatal("store rejected on empty ports")
	}
	if _, ok := p.TryIssue(isa.Load); ok {
		t.Fatal("two memory uops issued in one cycle")
	}
	// Ports 0/1 remain for int/fp.
	if !p.HasFree(isa.Int) || !p.HasFree(isa.Fp) {
		t.Fatal("ports 0/1 should remain free")
	}
}

func TestPortsCopiesNotPortBound(t *testing.T) {
	var p Ports
	if p.HasFree(isa.Copy) {
		t.Fatal("copies must not use execution ports")
	}
	if _, ok := p.TryIssue(isa.Copy); ok {
		t.Fatal("copy issued through a port")
	}
}

func TestRegFileAllocFree(t *testing.T) {
	rf := NewRegFile[int](4, 2, 2)
	if rf.Total(isa.IntReg) != 4 || rf.Total(isa.FpReg) != 2 {
		t.Fatal("totals wrong")
	}
	var got []int32
	for i := 0; i < 4; i++ {
		idx, ok := rf.Alloc(isa.IntReg, 0)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		got = append(got, idx)
	}
	if _, ok := rf.Alloc(isa.IntReg, 1); ok {
		t.Fatal("alloc beyond capacity succeeded")
	}
	if rf.InUse(isa.IntReg, 0) != 4 || rf.FreeCount(isa.IntReg) != 0 {
		t.Fatal("accounting wrong")
	}
	rf.Free(isa.IntReg, 0, got[0])
	if rf.FreeCount(isa.IntReg) != 1 || rf.InUse(isa.IntReg, 0) != 3 {
		t.Fatal("free accounting wrong")
	}
	if _, ok := rf.Alloc(isa.IntReg, 1); !ok {
		t.Fatal("freed register not reusable")
	}
}

func TestRegFileReadyBits(t *testing.T) {
	rf := NewRegFile[int](2, 2, 1)
	idx, _ := rf.Alloc(isa.FpReg, 0)
	if rf.IsReady(isa.FpReg, idx) {
		t.Fatal("fresh register should not be ready")
	}
	rf.SetReady(isa.FpReg, idx)
	if !rf.IsReady(isa.FpReg, idx) {
		t.Fatal("ready bit not set")
	}
	// Re-allocation clears readiness.
	rf.Free(isa.FpReg, 0, idx)
	idx2, _ := rf.Alloc(isa.FpReg, 0)
	if idx2 == idx && rf.IsReady(isa.FpReg, idx2) {
		t.Fatal("re-allocated register kept stale ready bit")
	}
}

func TestRegFileUnderflowPanics(t *testing.T) {
	rf := NewRegFile[int](2, 2, 1)
	idx, _ := rf.Alloc(isa.IntReg, 0)
	rf.Free(isa.IntReg, 0, idx)
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	rf.Free(isa.IntReg, 0, idx)
}

func TestRegFileBadIndexPanics(t *testing.T) {
	rf := NewRegFile[int](2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range free should panic")
		}
	}()
	rf.Free(isa.IntReg, 0, 99)
}

func TestRegFileUnbounded(t *testing.T) {
	rf := NewRegFile[int](0, 0, 1)
	if rf.Total(isa.IntReg) != UnboundedRegs {
		t.Fatal("unbounded sizing wrong")
	}
	for i := 0; i < 1000; i++ {
		if _, ok := rf.Alloc(isa.IntReg, 0); !ok {
			t.Fatal("unbounded file exhausted early")
		}
	}
}

// TestRegFileResetShrinksInPlace: a Table 4 file (64 registers per kind)
// reset to an emulated-unbounded one, used, and reset back — the reuse
// figure mode makes of one machine across the IQ study and the sized
// sweeps — becomes exactly the fresh 64-register file and allocates
// nothing.
func TestRegFileResetShrinksInPlace(t *testing.T) {
	const regs, threads = 64, 2
	rf := NewRegFile[*int](regs, regs, threads)
	var w int
	cycle := func() {
		rf.Reset(0, 0, threads)
		for _, k := range []isa.RegKind{isa.IntReg, isa.FpReg} {
			for i := 0; i < 3*regs; i++ {
				idx, _ := rf.Alloc(k, i%threads)
				if i%2 == 0 {
					rf.AddWaiter(k, idx, &w)
				} else {
					rf.SetReady(k, idx)
				}
			}
		}
		rf.Reset(regs, regs, threads)
	}
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Errorf("unbounded-and-back Reset allocates %v times, want 0", n)
	}
	if fresh := NewRegFile[*int](regs, regs, threads); !reflect.DeepEqual(rf, fresh) {
		t.Errorf("file reset from an unbounded one differs from a fresh one")
	}
}

// Property: alloc/free sequences keep FreeCount + sum(InUse) == Total.
func TestRegFileConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		rf := NewRegFile[int](16, 8, 2)
		type held struct {
			k   isa.RegKind
			t   int
			idx int32
		}
		var live []held
		for _, op := range ops {
			k := isa.RegKind(op % 2)
			th := int(op/2) % 2
			if op%3 == 0 && len(live) > 0 {
				h := live[len(live)-1]
				rf.Free(h.k, h.t, h.idx)
				live = live[:len(live)-1]
			} else if idx, ok := rf.Alloc(k, th); ok {
				live = append(live, held{k, th, idx})
			}
			for _, kind := range []isa.RegKind{isa.IntReg, isa.FpReg} {
				total := rf.FreeCount(kind) + rf.InUse(kind, 0) + rf.InUse(kind, 1)
				if total != rf.Total(kind) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: the issue queue preserves FIFO age order under random
// insert/remove interleavings.
func TestIssueQueueOrderProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewIssueQueue[int](16, 2)
		next := 1
		var present []int
		for _, op := range ops {
			if op%4 == 0 && len(present) > 0 {
				victim := present[int(op/4)%len(present)]
				q.Remove(victim)
				for i, v := range present {
					if v == victim {
						present = append(present[:i], present[i+1:]...)
						break
					}
				}
			} else if _, ok := q.Insert(next, int(op)%2); ok {
				present = append(present, next)
				next++
			}
			i := 0
			ok := true
			q.Scan(func(v, _ int) bool {
				if v != present[i] {
					ok = false
					return false
				}
				i++
				return true
			})
			if !ok || i != len(present) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
