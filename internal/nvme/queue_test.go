package nvme

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStatusStringsAndErr(t *testing.T) {
	if StatusSuccess.Err() != nil {
		t.Fatal("success status produced an error")
	}
	if StatusKeyNotFound.Err() == nil {
		t.Fatal("KeyNotFound status produced nil error")
	}
	for s, want := range map[Status]string{
		StatusSuccess: "Success", StatusInvalidField: "InvalidField",
		StatusKeyNotFound: "KeyNotFound", StatusCapacity: "CapacityExceeded",
		StatusInternal: "InternalError", StatusIterEnd: "IteratorEnd",
		Status(0xFF): "Status(0xff)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%#x).String() = %q, want %q", uint16(s), got, want)
		}
	}
	// Every status String names converts to a shared error that StatusOf
	// reads back without allocating; an unnamed status still converts,
	// freshly.
	for s := Status(1); s < 0x400; s++ {
		got, ok := StatusOf(s.Err())
		if !ok || got != s {
			t.Fatalf("StatusOf(%v.Err()) = %v, %v", s, got, ok)
		}
		if strings.HasPrefix(s.String(), "Status(") {
			continue
		}
		if n := testing.AllocsPerRun(1, func() {
			for range 10 {
				_, _ = StatusOf(s.Err())
			}
		}); n != 0 {
			t.Errorf("%v.Err() allocates %.0f times in 10 calls", s, n)
		}
	}
}

func TestSQFetchInvisibleUntilDoorbell(t *testing.T) {
	q := NewSubmissionQueue(8)
	var c Command
	c.SetCommandID(1)
	if err := q.Push(c); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Fetch(); err != ErrQueueEmpty {
		t.Fatalf("Fetch before doorbell: err = %v, want ErrQueueEmpty", err)
	}
	q.RingDoorbell()
	got, err := q.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if got.CommandID() != 1 {
		t.Fatalf("fetched command ID %d", got.CommandID())
	}
}

func TestSQFIFOOrder(t *testing.T) {
	q := NewSubmissionQueue(8)
	for i := 0; i < 5; i++ {
		var c Command
		c.SetCommandID(uint16(i))
		if err := q.Push(c); err != nil {
			t.Fatal(err)
		}
	}
	q.RingDoorbell()
	if q.Pending() != 5 {
		t.Fatalf("Pending = %d", q.Pending())
	}
	for i := 0; i < 5; i++ {
		c, err := q.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if c.CommandID() != uint16(i) {
			t.Fatalf("fetched %d at position %d", c.CommandID(), i)
		}
	}
}

func TestSQFullAndWraparound(t *testing.T) {
	q := NewSubmissionQueue(4) // capacity 3 usable slots
	for i := 0; i < 3; i++ {
		if err := q.Push(Command{}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := q.Push(Command{}); err != ErrQueueFull {
		t.Fatalf("4th push err = %v, want ErrQueueFull", err)
	}
	q.RingDoorbell()
	// Drain and refill repeatedly to exercise wraparound.
	for round := 0; round < 10; round++ {
		for q.Pending() > 0 {
			if _, err := q.Fetch(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if err := q.Push(Command{}); err != nil {
				t.Fatalf("round %d push %d: %v", round, i, err)
			}
		}
		q.RingDoorbell()
	}
	if q.Pending() != 3 {
		t.Fatalf("Pending after wrap rounds = %d", q.Pending())
	}
}

func TestSQTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size-1 SQ did not panic")
		}
	}()
	NewSubmissionQueue(1)
}

func TestCQPostReap(t *testing.T) {
	q := NewCompletionQueue(4)
	if err := q.Post(Completion{CommandID: 3, Status: StatusSuccess}); err != nil {
		t.Fatal(err)
	}
	if q.Pending() != 1 {
		t.Fatalf("Pending = %d", q.Pending())
	}
	c, err := q.Reap()
	if err != nil {
		t.Fatal(err)
	}
	if c.CommandID != 3 {
		t.Fatalf("reaped ID %d", c.CommandID)
	}
	if _, err := q.Reap(); err != ErrQueueEmpty {
		t.Fatalf("reap empty err = %v", err)
	}
}

func TestCQFull(t *testing.T) {
	q := NewCompletionQueue(2)
	if err := q.Post(Completion{}); err != nil {
		t.Fatal(err)
	}
	if err := q.Post(Completion{}); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestCQTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size-1 CQ did not panic")
		}
	}()
	NewCompletionQueue(1)
}

func TestQueuePair(t *testing.T) {
	qp := NewQueuePair(16)
	if qp.SQ.Size() != 16 || len(qp.CQ.entries) != 16 {
		t.Fatal("queue pair sizes wrong")
	}
}

// Property: any interleaving of pushes and fetch-drains preserves FIFO order
// and never loses or duplicates commands.
func TestSQInterleavingProperty(t *testing.T) {
	f := func(batches []uint8) bool {
		q := NewSubmissionQueue(64)
		var nextPush, nextFetch uint16
		for _, b := range batches {
			pushes := int(b % 8)
			for i := 0; i < pushes; i++ {
				var c Command
				c.SetCommandID(nextPush)
				if err := q.Push(c); err != nil {
					break
				}
				nextPush++
			}
			q.RingDoorbell()
			drains := int(b >> 4)
			for i := 0; i < drains; i++ {
				c, err := q.Fetch()
				if err != nil {
					break
				}
				if c.CommandID() != nextFetch {
					return false
				}
				nextFetch++
			}
		}
		q.RingDoorbell()
		for {
			c, err := q.Fetch()
			if err != nil {
				break
			}
			if c.CommandID() != nextFetch {
				return false
			}
			nextFetch++
		}
		return nextFetch == nextPush
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
