package mob

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocReleaseAccounting(t *testing.T) {
	m := New(4, 2)
	if m.Capacity() != 4 || m.Used() != 0 || m.Free() != 4 {
		t.Fatal("fresh MOB accounting wrong")
	}
	e1 := m.Alloc(0, 1, false)
	e2 := m.Alloc(0, 2, true)
	e3 := m.Alloc(1, 1, true)
	e4 := m.Alloc(1, 2, false)
	if e1 == nil || e2 == nil || e3 == nil || e4 == nil {
		t.Fatal("allocation within capacity failed")
	}
	if m.Alloc(0, 3, false) != nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if m.UsedBy(0) != 2 || m.UsedBy(1) != 2 {
		t.Fatal("per-thread accounting wrong")
	}
	m.Release(e2)
	if m.Used() != 3 || m.UsedBy(0) != 1 {
		t.Fatal("release accounting wrong")
	}
	if m.Alloc(1, 3, false) == nil {
		t.Fatal("freed entry not reusable")
	}
}

func TestForwardingExactResolvedOlderOnly(t *testing.T) {
	m := New(16, 2)
	st := m.Alloc(0, 5, true)
	// Unresolved store: no forwarding.
	if m.Forward(0, 10, 0x100) {
		t.Fatal("forwarded from unresolved store")
	}
	m.Resolve(st, 0x100)
	if !m.Forward(0, 10, 0x100) {
		t.Fatal("no forward from resolved same-address older store")
	}
	if m.Forward(0, 10, 0x108) {
		t.Fatal("forwarded across different 8-byte words")
	}
	if !m.Forward(0, 10, 0x104) {
		t.Fatal("same 8-byte word should forward regardless of low bits")
	}
	// Younger store must not forward to an older load.
	if m.Forward(0, 3, 0x100) {
		t.Fatal("forwarded from younger store")
	}
	// Other thread's store must not forward.
	if m.Forward(1, 10, 0x100) {
		t.Fatal("forwarded across threads")
	}
	if m.Forwards() != 2 {
		t.Errorf("forward count %d, want 2", m.Forwards())
	}
}

func TestForwardPicksYoungestOlderStore(t *testing.T) {
	m := New(16, 1)
	a := m.Alloc(0, 1, true)
	b := m.Alloc(0, 2, true)
	m.Resolve(a, 0x200)
	m.Resolve(b, 0x300)
	// The load at seq 5 from 0x300 matches only store b.
	if !m.Forward(0, 5, 0x300) {
		t.Fatal("should forward from store b")
	}
}

func TestSquashYounger(t *testing.T) {
	m := New(16, 2)
	m.Alloc(0, 1, true)
	m.Alloc(0, 2, false)
	m.Alloc(0, 3, true)
	m.Alloc(1, 9, false)
	n := m.SquashYounger(0, 1)
	if n != 2 {
		t.Fatalf("squashed %d entries, want 2", n)
	}
	if m.UsedBy(0) != 1 || m.UsedBy(1) != 1 {
		t.Fatalf("post-squash accounting: t0=%d t1=%d", m.UsedBy(0), m.UsedBy(1))
	}
	// Squash with nothing younger is a no-op.
	if m.SquashYounger(0, 100) != 0 {
		t.Fatal("no-op squash removed entries")
	}
}

func TestReleaseUnknownPanics(t *testing.T) {
	m := New(4, 1)
	e := m.Alloc(0, 1, false)
	m.Release(e)
	defer func() {
		if recover() == nil {
			t.Error("double release should panic")
		}
	}()
	m.Release(e)
}

func TestDefaults(t *testing.T) {
	m := New(0, 0)
	if m.Capacity() != 128 {
		t.Errorf("default capacity %d", m.Capacity())
	}
	if m.Alloc(0, 1, false) == nil {
		t.Error("default MOB unusable")
	}
}

// Property: Used always equals the sum of per-thread usage, under any
// alloc/release/squash interleaving.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(32, 2)
		var live []*Entry
		seq := uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				seq++
				if e := m.Alloc(int(op/3)%2, seq, op%2 == 0); e != nil {
					live = append(live, e)
				}
			case 1:
				if len(live) > 0 {
					m.Release(live[len(live)-1])
					live = live[:len(live)-1]
				}
			case 2:
				tgt := int(op/3) % 2
				m.SquashYounger(tgt, seq/2)
				kept := live[:0]
				for _, e := range live {
					if e.Thread == tgt && e.Seq > seq/2 {
						continue
					}
					kept = append(kept, e)
				}
				live = kept
			}
			if m.Used() != m.UsedBy(0)+m.UsedBy(1) || m.Used() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
