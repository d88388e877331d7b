package pool

import "testing"

func TestGetPutRoundTrip(t *testing.T) {
	var p Bytes
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100/128", len(a), cap(a))
	}
	p.Put(a)
	b := p.Get(120)
	if len(b) != 120 || cap(b) != 128 {
		t.Fatalf("Get(120): len %d cap %d, want 120/128", len(b), cap(b))
	}
	if &a[0] != &b[0] {
		t.Fatal("Get after Put did not reuse the buffer")
	}
	if c := p.Get(100); &c[0] == &b[0] {
		t.Fatal("Get with an empty class handed out a buffer still in use")
	}
}

func TestGetZero(t *testing.T) {
	var p Bytes
	if buf := p.Get(0); buf != nil {
		t.Fatalf("Get(0) = %v, want nil", buf)
	}
}

func TestOversizedFallsThrough(t *testing.T) {
	var p Bytes
	n := (1 << maxClassBits) + 1
	buf := p.Get(n)
	if len(buf) != n {
		t.Fatalf("oversized Get: len %d", len(buf))
	}
	p.Put(buf) // dropped, not filed
	for c := range p.free {
		if len(p.free[c]) != 0 {
			t.Fatalf("oversized buffer filed under class %d", c)
		}
	}
}

func TestPutCapsPerClass(t *testing.T) {
	var p Bytes
	for i := 0; i < maxPerClass+4; i++ {
		p.Put(make([]byte, 64))
	}
	if got := len(p.free[0]); got != maxPerClass {
		t.Fatalf("class 0 holds %d buffers, want %d", got, maxPerClass)
	}
}

func TestCapClassFilesUnderLargestCovered(t *testing.T) {
	// A 200-byte-cap buffer fully covers the 128-byte class but not 256.
	var p Bytes
	p.Put(make([]byte, 200))
	if len(p.free[1]) != 1 {
		t.Fatalf("200-cap buffer not filed under the 128 B class: %v",
			func() []int {
				var ls []int
				for _, f := range p.free {
					ls = append(ls, len(f))
				}
				return ls
			}())
	}
	buf := p.Get(128)
	if cap(buf) < 128 {
		t.Fatalf("reused buffer cap %d < 128", cap(buf))
	}
}

func TestTinyPutDropped(t *testing.T) {
	var p Bytes
	p.Put(make([]byte, 10))
	for c := range p.free {
		if len(p.free[c]) != 0 {
			t.Fatal("sub-minimum buffer was filed")
		}
	}
}

func TestSteadyStateGetPutAllocationFree(t *testing.T) {
	var p Bytes
	p.Put(make([]byte, 4096))
	allocs := testing.AllocsPerRun(1000, func() {
		buf := p.Get(4000)
		p.Put(buf)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f/op, want 0", allocs)
	}
}
