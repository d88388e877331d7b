package cache

import (
	"fmt"
	"testing"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"lru", LRU, true},
		{"LRU", LRU, true},
		{"clock", 0, false},
		{"2q", TwoQ, true},
		{"twoq", TwoQ, true},
		{"arc", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseKind(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, k := range []Kind{LRU, TwoQ} {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("round trip %v: got %v, %v", k, back, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	if err := ServingProfile().Validate(); err != nil {
		t.Fatalf("serving profile must validate: %v", err)
	}
	bad := []Config{
		{ValueBytes: -1},
		{Pages: -1},
		{NegativeEntries: -1},
		{Policy: Kind(99)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(Config{NegativeEntries: 8}).Enabled() || (Config{NegativeEntries: 8}).DeviceEnabled() {
		t.Error("negative-only config misclassified")
	}
}

// TestLRUOrder pins the basic recency contract: eviction order is access
// order, and Touch reorders.
func TestLRUOrder(t *testing.T) {
	p := NewPolicy(LRU)
	for s := 0; s < 3; s++ {
		p.Admit(s)
	}
	p.Touch(0) // order now (MRU→LRU): 0, 2, 1
	for i, want := range []int{1, 2, 0} {
		if got := p.Evict(); got != want {
			t.Fatalf("evict %d: got slot %d, want %d", i, got, want)
		}
	}
	if got := p.Evict(); got != -1 {
		t.Fatalf("empty evict returned %d", got)
	}
}

// TestTwoQPromotionDemotion pins the 2Q contract: one-touch entries die in
// probation order (FIFO demotion), a second access promotes into the
// protected LRU, and protected entries outlive any number of one-touch
// scans.
func TestTwoQPromotionDemotion(t *testing.T) {
	p := NewPolicy(TwoQ)
	// Admit 0..3; touch 0 again → promoted to Am. 1..3 remain in A1in.
	for s := 0; s < 4; s++ {
		p.Admit(s)
	}
	p.Touch(0)
	// A1in (3 of 4 resident) is over its 1/4 share: demotions come from the
	// FIFO tail — strict admission order, ignoring the re-touches below.
	p.Touch(1) // touching inside A1in... promotes (second access)
	// After touching 1, Am = {1, 0}, A1in = {3, 2}.
	if got := p.Evict(); got != 2 {
		t.Fatalf("first demotion: got slot %d, want 2 (A1in FIFO tail)", got)
	}
	if got := p.Evict(); got != 3 {
		t.Fatalf("second demotion: got slot %d, want 3", got)
	}
	// Only Am remains: eviction is LRU order (0 is older than 1).
	if got := p.Evict(); got != 0 {
		t.Fatalf("protected eviction: got slot %d, want 0 (Am LRU)", got)
	}
	if got := p.Evict(); got != 1 {
		t.Fatalf("final eviction: got slot %d, want 1", got)
	}
}

// TestTwoQScanResistance is the property 2Q exists for: a long one-touch
// scan must not displace the promoted hot set.
// policyLen reports how many slots p holds resident.
func policyLen(p Policy) int {
	switch p := p.(type) {
	case *lruPolicy:
		return p.list.n
	case *twoQPolicy:
		return p.in.n + p.am.n
	}
	panic("unknown policy")
}

func TestTwoQScanResistance(t *testing.T) {
	p := NewPolicy(TwoQ)
	// Build a hot set of 4 promoted slots.
	for s := 0; s < 4; s++ {
		p.Admit(s)
		p.Touch(s)
	}
	// Scan 100 one-touch entries through a residency bound of 8: admit,
	// then evict back down to 8 resident.
	for s := 10; s < 110; s++ {
		p.Admit(s)
		for policyLen(p) > 8 {
			if v := p.Evict(); v < 4 && v >= 0 {
				t.Fatalf("scan evicted hot slot %d", v)
			}
		}
	}
	// The hot set is still resident: draining yields all four eventually.
	seen := map[int]bool{}
	for {
		v := p.Evict()
		if v < 0 {
			break
		}
		seen[v] = true
	}
	for s := 0; s < 4; s++ {
		if !seen[s] {
			t.Fatalf("hot slot %d lost during scan", s)
		}
	}
}

// TestPolicyRecycleSlots checks slot indices can be reused after eviction and
// removal across all policies (the caches recycle slots through free lists).
func TestPolicyRecycleSlots(t *testing.T) {
	for _, k := range []Kind{LRU, TwoQ} {
		t.Run(k.String(), func(t *testing.T) {
			p := NewPolicy(k)
			for round := 0; round < 3; round++ {
				for s := 0; s < 8; s++ {
					p.Admit(s)
				}
				p.Touch(3)
				p.Remove(5)
				n := 0
				for p.Evict() >= 0 {
					n++
				}
				if n != 7 {
					t.Fatalf("round %d: drained %d slots, want 7", round, n)
				}
				if policyLen(p) != 0 {
					t.Fatalf("round %d: len %d after drain", round, policyLen(p))
				}
			}
			p.Admit(2)
			p.Reset()
			if policyLen(p) != 0 || p.Evict() != -1 {
				t.Fatal("reset did not empty policy")
			}
		})
	}
}

func TestValuesBasic(t *testing.T) {
	c := NewValues(1<<20, NewPolicy(LRU))
	key, val := []byte("k1"), []byte("value-1")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	if _, admitted := c.Put(key, val); !admitted {
		t.Fatal("put rejected")
	}
	got, ok := c.Get(key)
	if !ok || string(got) != string(val) {
		t.Fatalf("get: %q, %v", got, ok)
	}
	// Overwrite replaces in place.
	if _, admitted := c.Put(key, []byte("value-2")); !admitted {
		t.Fatal("overwrite rejected")
	}
	if got, _ := c.Get(key); string(got) != "value-2" {
		t.Fatalf("after overwrite: %q", got)
	}
	if c.Len() != 1 {
		t.Fatalf("len: %d", c.Len())
	}
	if !c.Invalidate(key) {
		t.Fatal("invalidate missed resident key")
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("hit after invalidate")
	}
	if c.Invalidate(key) {
		t.Fatal("second invalidate reported resident")
	}
	if c.used != 0 {
		t.Fatalf("used bytes after drain: %d", c.used)
	}
}

func TestValuesEvictionBudget(t *testing.T) {
	// Budget of 4 entries of (5-byte key + 59-byte value) = 256 bytes.
	c := NewValues(256, NewPolicy(LRU))
	val := make([]byte, 59)
	for i := 0; i < 6; i++ {
		key := []byte(fmt.Sprintf("ek%03d", i))
		evicted, admitted := c.Put(key, val)
		if !admitted {
			t.Fatalf("put %d rejected", i)
		}
		if i < 4 && evicted != 0 {
			t.Fatalf("put %d evicted %d entries before budget filled", i, evicted)
		}
		if i >= 4 && evicted != 1 {
			t.Fatalf("put %d evicted %d entries, want 1", i, evicted)
		}
	}
	// LRU: 0 and 1 are gone; 2..5 resident.
	if _, ok := c.Get([]byte("ek000")); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.Get([]byte("ek005")); !ok {
		t.Fatal("newest entry missing")
	}
	if c.used > 256 {
		t.Fatalf("used %d exceeds budget", c.used)
	}
}

func TestValuesAdmissionControl(t *testing.T) {
	c := NewValues(1024, NewPolicy(LRU))
	// maxEntry = 256: a 300-byte value must be refused without evicting.
	c.Put([]byte("small"), make([]byte, 64))
	if evicted, admitted := c.Put([]byte("big"), make([]byte, 300)); admitted || evicted != 0 {
		t.Fatalf("oversized value admitted=%v evicted=%d", admitted, evicted)
	}
	if _, ok := c.Get([]byte("small")); !ok {
		t.Fatal("resident entry lost to rejected admission")
	}
}

func TestValuesReset(t *testing.T) {
	c := NewValues(4096, NewPolicy(TwoQ))
	for i := 0; i < 8; i++ {
		c.Put([]byte(fmt.Sprintf("rk%02d", i)), make([]byte, 32))
	}
	c.Reset()
	if c.Len() != 0 || c.used != 0 {
		t.Fatalf("after reset: len=%d used=%d", c.Len(), c.used)
	}
	// The cache must be fully usable after reset.
	c.Put([]byte("rk00"), make([]byte, 32))
	if _, ok := c.Get([]byte("rk00")); !ok {
		t.Fatal("miss after post-reset put")
	}
}

func TestPagesBasic(t *testing.T) {
	c := NewPages(2, NewPolicy(LRU))
	c.Put(10)
	c.Put(11)
	if !c.Get(10) {
		t.Fatal("get 10: miss")
	}
	// Page 11 is now LRU; admitting 12 evicts it.
	if evicted := c.Put(12); evicted != 1 {
		t.Fatalf("evicted %d, want 1", evicted)
	}
	if c.Get(11) {
		t.Fatal("LRU page survived eviction")
	}
	if !c.Get(10) {
		t.Fatal("touched page evicted")
	}
	// Page numbers are recycled by the LSM: re-putting a page re-admits it
	// without growing the tier.
	c.Put(10)
	if !c.Get(10) || len(c.idx) != 2 {
		t.Fatalf("after re-put: resident %v, len %d", c.Get(10), len(c.idx))
	}
	if !c.Invalidate(10) || c.Invalidate(10) {
		t.Fatal("invalidate bookkeeping wrong")
	}
	c.Reset()
	if len(c.idx) != 0 {
		t.Fatalf("len after reset: %d", len(c.idx))
	}
}

// TestValuesHitPathAllocs pins the tentpole's zero-alloc promise at the
// package level: steady-state Get on a warm cache allocates nothing.
func TestValuesHitPathAllocs(t *testing.T) {
	c := NewValues(1<<20, NewPolicy(TwoQ))
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("hk%02d", i))
		c.Put(keys[i], make([]byte, 128))
	}
	i := 0
	if avg := testing.AllocsPerRun(400, func() {
		v, ok := c.Get(keys[i%len(keys)])
		if !ok || len(v) != 128 {
			t.Fatal("miss on warm cache")
		}
		i++
	}); avg != 0 {
		t.Errorf("Values.Get allocates %.2f per op, want 0", avg)
	}
	p := NewPages(16, NewPolicy(LRU))
	for pg := 0; pg < 16; pg++ {
		p.Put(pg)
	}
	i = 0
	if avg := testing.AllocsPerRun(400, func() {
		if !p.Get(i % 16) {
			t.Fatal("miss on warm page cache")
		}
		i++
	}); avg != 0 {
		t.Errorf("Pages.Get allocates %.2f per op, want 0", avg)
	}
	// A full tier churning through new page numbers recycles its slots: the
	// steady-state miss path allocates nothing either.
	pg := 16
	if avg := testing.AllocsPerRun(400, func() {
		if p.Put(pg) != 1 {
			t.Fatal("a full tier admitted a page without evicting one")
		}
		pg++
	}); avg != 0 {
		t.Errorf("Pages.Put allocates %.2f per op at capacity, want 0", avg)
	}
}
