package frontend

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clustersmt/internal/isa"
)

func TestRATDefineAndCopies(t *testing.T) {
	var r RAT
	if m0 := r.Get(3); m0.AnyValid() {
		t.Fatal("fresh RAT must be empty")
	}
	r.Define(3, 0, 17)
	m := r.Get(3)
	if !m.Valid[0] || m.Phys[0] != 17 || m.Valid[1] {
		t.Fatalf("after Define: %+v", m)
	}
	// A copy adds a second cluster without killing the first.
	r.SetCluster(3, 1, 9)
	m = r.Get(3)
	if !m.Valid[0] || !m.Valid[1] || m.Phys[1] != 9 {
		t.Fatalf("after SetCluster: %+v", m)
	}
	// A new definition kills all other copies.
	r.Define(3, 1, 30)
	m = r.Get(3)
	if m.Valid[0] || !m.Valid[1] || m.Phys[1] != 30 {
		t.Fatalf("after redefine: %+v", m)
	}
}

func TestRATSetRestores(t *testing.T) {
	var r RAT
	r.Define(5, 0, 1)
	old := r.Get(5)
	r.Define(5, 1, 2)
	r.Set(5, old) // squash rollback
	if m := r.Get(5); !m.Valid[0] || m.Phys[0] != 1 || m.Valid[1] {
		t.Fatalf("rollback failed: %+v", m)
	}
}

func TestROBBoundedAndOrder(t *testing.T) {
	r := NewROB(3)
	es := []*ROBEntry{{Seq: 1}, {Seq: 2}, {Seq: 3}}
	for _, e := range es {
		if !r.Push(e) {
			t.Fatal("push within capacity failed")
		}
	}
	if r.Push(&ROBEntry{Seq: 4}) {
		t.Fatal("push beyond capacity succeeded")
	}
	if r.Free() != 0 || r.Len() != 3 {
		t.Fatal("accounting wrong")
	}
	if r.Head().Seq != 1 || r.Tail().Seq != 3 || r.At(1).Seq != 2 {
		t.Fatal("ordering accessors wrong")
	}
	if r.PopTail().Seq != 3 || r.PopHead().Seq != 1 {
		t.Fatal("pop order wrong")
	}
	if r.Len() != 1 {
		t.Fatal("length after pops")
	}
}

func TestROBUnbounded(t *testing.T) {
	r := NewROB(0)
	for i := 0; i < 10000; i++ {
		if !r.Push(&ROBEntry{Seq: uint64(i)}) {
			t.Fatal("unbounded ROB rejected a push")
		}
	}
	if r.Free() < 1<<20 {
		t.Fatal("unbounded ROB should report huge free space")
	}
	if r.Capacity() != 0 {
		t.Fatal("capacity should echo configuration")
	}
}

func TestROBEmptyHead(t *testing.T) {
	r := NewROB(4)
	if r.Head() != nil || r.Tail() != nil {
		t.Fatal("empty ROB accessors must return nil")
	}
}

func TestROBEntryReset(t *testing.T) {
	e := &ROBEntry{Seq: 9, DstPhys: 5, Issued: true, NumSrc: 2}
	e.SrcPhys[0] = 3
	e.Reset()
	if e.Seq != 0 || e.DstPhys != -1 || e.Issued || e.NumSrc != 0 ||
		e.SrcPhys[0] != -1 || e.SrcPhys[1] != -1 || e.CopySrcPhys != -1 || e.TraceIdx != -1 {
		t.Fatalf("Reset left state: %+v", e)
	}
}

func TestIsCopy(t *testing.T) {
	e := &ROBEntry{}
	e.Reset()
	e.Uop.Class = isa.Copy
	if !e.IsCopy() {
		t.Fatal("copy detection")
	}
}

func TestFetchQueueFIFOAndWrap(t *testing.T) {
	q := NewFetchQueue(4)
	push := func(idx int) bool { return q.Push(FetchedUop{TraceIdx: idx}) }
	for i := 0; i < 4; i++ {
		if !push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if push(9) {
		t.Fatal("push into full queue succeeded")
	}
	if q.Pop().TraceIdx != 0 || q.Pop().TraceIdx != 1 {
		t.Fatal("FIFO order broken")
	}
	// Wrap around the ring.
	push(4)
	push(5)
	got := []int{q.Pop().TraceIdx, q.Pop().TraceIdx, q.Pop().TraceIdx, q.Pop().TraceIdx}
	want := []int{2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrap order %v, want %v", got, want)
		}
	}
	if q.Len() != 0 || q.Free() != 4 {
		t.Fatal("accounting after drain")
	}
}

func TestFetchQueuePeekEachClear(t *testing.T) {
	q := NewFetchQueue(8)
	for i := 0; i < 5; i++ {
		q.Push(FetchedUop{TraceIdx: i})
	}
	if q.Peek().TraceIdx != 0 {
		t.Fatal("peek wrong")
	}
	var seen []int
	q.Each(func(u *FetchedUop) bool {
		seen = append(seen, u.TraceIdx)
		return u.TraceIdx < 2
	})
	if len(seen) != 3 || seen[2] != 2 {
		t.Fatalf("Each visited %v", seen)
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatal("clear failed")
	}
}

// Property: the fetch queue behaves as a bounded FIFO under arbitrary
// push/pop interleavings (model-based check against a slice).
func TestFetchQueueModelProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewFetchQueue(8)
		var model []int
		next := 0
		for _, isPush := range ops {
			if isPush {
				ok := q.Push(FetchedUop{TraceIdx: next})
				if ok != (len(model) < 8) {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else if len(model) > 0 {
				if q.Pop().TraceIdx != model[0] {
					return false
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
