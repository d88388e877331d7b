package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	got := c.Advance(5 * Microsecond)
	if got != Time(5*Microsecond) {
		t.Fatalf("Advance returned %v, want 5us", got)
	}
	c.Advance(0)
	if c.Now() != Time(5*Microsecond) {
		t.Fatalf("zero advance moved clock to %v", c.Now())
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestClockAdvanceToNeverRewinds(t *testing.T) {
	c := NewClock()
	c.Advance(10)
	if got := c.AdvanceTo(5); got != 10 {
		t.Fatalf("AdvanceTo(5) rewound clock to %v", got)
	}
	if got := c.AdvanceTo(20); got != 20 {
		t.Fatalf("AdvanceTo(20) = %v", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add: got %d", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Fatalf("Sub: got %d", d)
	}
	if m := Time(2500).Micros(); m != 2.5 {
		t.Fatalf("Micros: got %v", m)
	}
}

func TestDurationFormatting(t *testing.T) {
	if s := Duration(1500).String(); s != "1.500us" {
		t.Fatalf("Duration.String: %q", s)
	}
	if s := Time(1500).String(); s != "1.500us" {
		t.Fatalf("Time.String: %q", s)
	}
	if m := Duration(Millisecond).Micros(); m != 1000 {
		t.Fatalf("Duration.Micros: %v", m)
	}
	if s := Duration(2 * Second).Seconds(); s != 2 {
		t.Fatalf("Duration.Seconds: %v", s)
	}
}

func TestBusyLineIdleStartsImmediately(t *testing.T) {
	var b BusyLine
	start, end := b.Schedule(100, 50)
	if start != 100 || end != 150 {
		t.Fatalf("Schedule = (%v,%v), want (100,150)", start, end)
	}
}

func TestBusyLineQueuesBehindBusy(t *testing.T) {
	var b BusyLine
	b.Schedule(0, 100)
	start, end := b.Schedule(10, 20) // eligible at 10 but line busy until 100
	if start != 100 || end != 120 {
		t.Fatalf("queued op = (%v,%v), want (100,120)", start, end)
	}
	if next, _ := b.Schedule(0, 1); next != 120 {
		t.Fatalf("next op starts at %v, want 120", next)
	}
}

func TestBusyLineAccounting(t *testing.T) {
	var b BusyLine
	b.Schedule(0, 30)
	b.Schedule(0, 70)
	if u := b.Utilization(200); u != 0.5 {
		t.Fatalf("Utilization = %v", u)
	}
	if u := b.Utilization(0); u != 0 {
		t.Fatalf("Utilization at t=0 = %v", u)
	}
}

// Property: scheduling is FIFO and never overlaps — each op starts no earlier
// than the previous op's end, and no earlier than its eligibility time.
func TestBusyLineNoOverlapProperty(t *testing.T) {
	f := func(eligibles []uint16, lengths []uint16) bool {
		var b BusyLine
		var prevEnd Time
		n := len(eligibles)
		if len(lengths) < n {
			n = len(lengths)
		}
		for i := 0; i < n; i++ {
			el := Time(eligibles[i])
			d := Duration(lengths[i])
			start, end := b.Schedule(el, d)
			if start < prevEnd || start < el || end != start.Add(d) {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	a := NewRNG(7)
	c := a.Split()
	// The split stream must not replay the parent's stream.
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream matches parent %d/64 draws", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of range", f)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(0).Intn(0)
}

func TestRNGUniformity(t *testing.T) {
	// Chi-square-lite check: 10 buckets, 100k draws, each bucket within 5%.
	r := NewRNG(99)
	const n = 100000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/200 || c > n/10+n/200 {
			t.Fatalf("bucket %d has %d draws, expected ~%d", i, c, n/10)
		}
	}
}

func TestRNGShuffleKeepsElements(t *testing.T) {
	r := NewRNG(6)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements, sum=%d", sum)
	}
}
