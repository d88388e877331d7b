package pagebuf

import "testing"

func TestDLTPushOldestConsume(t *testing.T) {
	d := NewDLT(4)
	if _, ok := d.Oldest(); ok {
		t.Fatal("empty DLT reported an entry")
	}
	if err := d.Push(DLTEntry{Addr: 4096, Size: 2048}); err != nil {
		t.Fatal(err)
	}
	if err := d.Push(DLTEntry{Addr: 8192, Size: 100}); err != nil {
		t.Fatal(err)
	}
	if d.size != 2 || len(d.ring) != 4 {
		t.Fatalf("Len/Cap = %d/%d", d.size, len(d.ring))
	}
	e, ok := d.Oldest()
	if !ok || e.Addr != 4096 {
		t.Fatalf("Oldest = %+v", e)
	}
	if got := d.Consume(); got.Addr != 4096 || got.Size != 2048 {
		t.Fatalf("Consume = %+v", got)
	}
	if e, _ := d.Oldest(); e.Addr != 8192 {
		t.Fatalf("after consume, Oldest = %+v", e)
	}
}

func TestDLTFullRejectsPush(t *testing.T) {
	d := NewDLT(2)
	d.Push(DLTEntry{Addr: 0, Size: 1})
	d.Push(DLTEntry{Addr: 4096, Size: 1})
	if !d.Full() {
		t.Fatal("not full at capacity")
	}
	if err := d.Push(DLTEntry{Addr: 8192, Size: 1}); err == nil {
		t.Fatal("push into full DLT accepted")
	}
}

func TestDLTOutOfOrderPanics(t *testing.T) {
	d := NewDLT(4)
	d.Push(DLTEntry{Addr: 8192, Size: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order push did not panic")
		}
	}()
	d.Push(DLTEntry{Addr: 4096, Size: 1})
}

func TestDLTConsumeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("consume on empty DLT did not panic")
		}
	}()
	NewDLT(2).Consume()
}

func TestDLTWraparound(t *testing.T) {
	d := NewDLT(3)
	addr := int64(0)
	for round := 0; round < 10; round++ {
		for d.size < len(d.ring) {
			if err := d.Push(DLTEntry{Addr: addr, Size: 10}); err != nil {
				t.Fatal(err)
			}
			addr += 4096
		}
		want := addr - int64(d.size)*4096
		for d.size > 0 {
			if got := d.Consume(); got.Addr != want {
				t.Fatalf("round %d: consumed %d, want %d", round, got.Addr, want)
			}
			want += 4096
		}
	}
}

func TestDLTReset(t *testing.T) {
	d := NewDLT(2)
	d.Push(DLTEntry{Addr: 0, Size: 5})
	d.Reset()
	if d.size != 0 {
		t.Fatal("Reset kept entries")
	}
	if err := d.Push(DLTEntry{Addr: 0, Size: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestDLTZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDLT(0) did not panic")
		}
	}()
	NewDLT(0)
}
