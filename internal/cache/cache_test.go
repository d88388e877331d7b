package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bandslim/internal/nvme"
	"bandslim/internal/sim"
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
		{Policy: Kind(99)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	if (Config{}).DeviceEnabled() || !ServingProfile().DeviceEnabled() {
		t.Error("config misclassified")
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
	// A refused overwrite still drops the value it would have replaced: the
	// tier must not serve a key's old value once it has seen a newer one.
	if evicted, admitted := c.Put([]byte("small"), make([]byte, 300)); admitted || evicted != 0 {
		t.Fatalf("oversized overwrite admitted=%v evicted=%d", admitted, evicted)
	}
	if _, ok := c.Get([]byte("small")); ok || c.Len() != 0 || c.used != 0 {
		t.Fatalf("stale value still resident after a refused overwrite: len=%d used=%d", c.Len(), c.used)
	}
}

// TestValuesSlabBound drives value sizes that shift across size classes
// through a small tier and checks that every resident value reads back
// intact, whether it sits in the slab or in an allocation past the slab's
// bound of twice the tier's budget (which sim's TestSlabBound holds it to).
func TestValuesSlabBound(t *testing.T) {
	// 300 KiB admits values larger than a slab block.
	for _, capBytes := range []int{1 << 10, 40 << 10, 300 << 10} {
		for _, k := range []Kind{LRU, TwoQ} {
			t.Run(fmt.Sprintf("%d/%v", capBytes, k), func(t *testing.T) {
				c := NewValues(capBytes, NewPolicy(k))
				val := make([]byte, c.maxEntry)
				for i := 0; i < 6000; i++ {
					// Sizes sweep up through the classes, then back down,
					// in phases of 100 Puts over 64 keys.
					phase := i / 100 % 30
					if phase >= 15 {
						phase = 29 - phase
					}
					n := 1 + (phase*c.maxEntry/14+i%7)%c.maxEntry
					key := []byte(fmt.Sprintf("sb%02d", i%64))
					for j := range val[:n] {
						val[j] = byte(i + j)
					}
					c.Put(key, val[:n])
					got, ok := c.Get(key)
					if !ok || len(got) != n || got[0] != byte(i) || got[n-1] != byte(i+n-1) {
						t.Fatalf("put %d: read back %d bytes, %v", i, len(got), ok)
					}
				}
				inSlab := false
				for _, e := range c.ents {
					inSlab = inSlab || e.slab
				}
				if !inSlab {
					t.Fatal("no resident value sits in the slab")
				}
			})
		}
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
	if !c.Get(10) || c.idx.n != 2 {
		t.Fatalf("after re-put: resident %v, len %d", c.Get(10), c.idx.n)
	}
	if !c.Invalidate(10) || c.Invalidate(10) {
		t.Fatal("invalidate bookkeeping wrong")
	}
	c.Reset()
	if c.idx.n != 0 {
		t.Fatalf("len after reset: %d", c.idx.n)
	}
}

// TestValuesHitPathAllocs pins the tiers' zero-alloc promise at the package
// level: a steady-state Get on a warm cache allocates nothing, and neither do
// an invalidation, a refill after Reset or an admission into a full tier.
func TestValuesHitPathAllocs(t *testing.T) {
	c := NewValues(1<<20, NewPolicy(TwoQ))
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("hk%02d", i))
		c.Put(keys[i], make([]byte, 128))
	}
	i := 0
	// Each check is one call of all its runs, so that the count is exact.
	if n := testing.AllocsPerRun(1, func() {
		for range 400 {
			v, ok := c.Get(keys[i%len(keys)])
			if !ok || len(v) != 128 {
				t.Fatal("miss on warm cache")
			}
			i++
		}
	}); n != 0 {
		t.Errorf("Values.Get allocates %.0f times in 400 ops, want 0", n)
	}
	// Invalidating a resident key and admitting it again reuses its slot
	// and its slab chunk.
	val := make([]byte, 128)
	i = 0
	if n := testing.AllocsPerRun(1, func() {
		for range 400 {
			k := keys[i%len(keys)]
			if !c.Invalidate(k) {
				t.Fatal("resident key not invalidated")
			}
			c.Put(k, val)
			i++
		}
	}); n != 0 {
		t.Errorf("Values.Invalidate allocates %.0f times in 400 ops, want 0", n)
	}
	// Reset keeps the slots and the slab, so refilling allocates nothing.
	if n := testing.AllocsPerRun(1, func() {
		for range 50 {
			c.Reset()
			for _, k := range keys {
				c.Put(k, val)
			}
			if c.Len() != len(keys) {
				t.Fatalf("refill holds %d entries, want %d", c.Len(), len(keys))
			}
		}
	}); n != 0 {
		t.Errorf("Values refill after Reset allocates %.0f times in 50 runs, want 0", n)
	}
	// A full tier admitting keys it does not hold evicts one entry per
	// admission and recycles its storage.
	churn := make([][]byte, 2*len(keys))
	for j := range churn {
		churn[j] = []byte(fmt.Sprintf("ck%02d", j))
	}
	full := NewValues(len(keys)*(4+128), NewPolicy(TwoQ))
	for _, k := range churn[:len(keys)] {
		full.Put(k, val)
	}
	i = len(keys)
	if n := testing.AllocsPerRun(1, func() {
		for range 400 {
			if evicted, ok := full.Put(churn[i%len(churn)], val); !ok || evicted != 1 {
				t.Fatalf("put into a full tier: evicted=%d admitted=%v", evicted, ok)
			}
			i++
		}
	}); n != 0 {
		t.Errorf("Values.Put allocates %.0f times in 400 ops at capacity, want 0", n)
	}

	p := NewPages(16, NewPolicy(LRU))
	for pg := 0; pg < 16; pg++ {
		p.Put(pg)
	}
	i = 0
	if n := testing.AllocsPerRun(1, func() {
		for range 400 {
			if !p.Get(i % 16) {
				t.Fatal("miss on warm page cache")
			}
			i++
		}
	}); n != 0 {
		t.Errorf("Pages.Get allocates %.0f times in 400 ops, want 0", n)
	}
	// A full tier churning through new page numbers recycles its slots: the
	// steady-state miss path allocates nothing either.
	pg := 16
	if n := testing.AllocsPerRun(1, func() {
		for range 400 {
			if p.Put(pg) != 1 {
				t.Fatal("a full tier admitted a page without evicting one")
			}
			pg++
		}
	}); n != 0 {
		t.Errorf("Pages.Put allocates %.0f times in 400 ops at capacity, want 0", n)
	}
}

// refValues is the value tier as it was before keys moved inline and values
// into a slab: a map[string]int index and one buffer per key and per value
// (plain make here, where free lists of pooled buffers used to be). It
// carries one fix the slab tier also has: a value refused for its size still
// drops the entry it would have replaced. FuzzValues holds the slab tier to
// it.
type refValues struct {
	pol      Policy
	idx      map[string]int
	ents     []refEntry
	free     []int
	used     int
	capBytes int
	maxEntry int
}

type refEntry struct{ key, val []byte }

func newRefValues(capBytes int, pol Policy) *refValues {
	maxEntry := capBytes / 4
	if maxEntry < 1 {
		maxEntry = capBytes
	}
	return &refValues{pol: pol, idx: make(map[string]int), capBytes: capBytes, maxEntry: maxEntry}
}

func (c *refValues) Get(key []byte) ([]byte, bool) {
	s, ok := c.idx[string(key)]
	if !ok {
		return nil, false
	}
	c.pol.Touch(s)
	return c.ents[s].val, true
}

func (c *refValues) Put(key, val []byte) (evicted int, admitted bool) {
	if c.capBytes <= 0 {
		return 0, false
	}
	if s, ok := c.idx[string(key)]; ok {
		c.dropSlot(s)
		c.pol.Remove(s)
	}
	need := len(key) + len(val)
	if len(val) > c.maxEntry || need > c.capBytes {
		return 0, false
	}
	for c.used+need > c.capBytes {
		v := c.pol.Evict()
		if v < 0 {
			return evicted, false
		}
		c.dropSlot(v)
		evicted++
	}
	var s int
	if n := len(c.free); n > 0 {
		s, c.free = c.free[n-1], c.free[:n-1]
	} else {
		c.ents = append(c.ents, refEntry{})
		s = len(c.ents) - 1
	}
	c.ents[s] = refEntry{key: append([]byte(nil), key...), val: append([]byte(nil), val...)}
	c.idx[string(key)] = s
	c.pol.Admit(s)
	c.used += need
	return evicted, true
}

func (c *refValues) Invalidate(key []byte) bool {
	s, ok := c.idx[string(key)]
	if !ok {
		return false
	}
	c.dropSlot(s)
	c.pol.Remove(s)
	return true
}

func (c *refValues) Reset() {
	for k, s := range c.idx {
		c.ents[s] = refEntry{}
		c.free = append(c.free, s)
		delete(c.idx, k)
	}
	c.pol.Reset()
	c.used = 0
}

func (c *refValues) dropSlot(s int) {
	e := &c.ents[s]
	c.used -= len(e.key) + len(e.val)
	delete(c.idx, string(e.key))
	c.ents[s] = refEntry{}
	c.free = append(c.free, s)
}

// checkIndex fails unless the index files exactly the live slots, each
// under its own key.
func checkIndex(t *testing.T, op int, x *index, live []bool) {
	t.Helper()
	n := 0
	for s, ok := range live {
		if !ok {
			continue
		}
		n++
		if got := x.get(x.keys[s]); got != s {
			t.Fatalf("op %d: slot %d found as %d through the index", op, s, got)
		}
	}
	if x.n != n {
		t.Fatalf("op %d: index holds %d slots, %d are live", op, x.n, n)
	}
}

// FuzzValues runs one op stream through the value tier and through
// refValues and requires the same answer from both at every step: each
// return value, Len and the resident byte count; and that the index finds
// every live slot under its key. A program's first byte picks the policy, its
// second the budget; then every three bytes are one op (put, get, invalidate
// or reset), a key of 0 to 17 bytes from a small alphabet so keys repeat, and
// a value size reaching past the admission bound. A key too long to hold
// inline goes to the slab tier only, which must refuse it. The committed
// corpus puts all 65 keys the fuzzer can name, led by keys whose probe runs
// wrap past the end of the first table (TestValuesCorpusWraps checks that
// they still do), so the index doubles to 256 positions, then drops them in
// an order unrelated to their positions, so deletions shift runs back.
func FuzzValues(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 9, 1, 3, 0, 0, 3, 255, 1, 3, 0})
	f.Add([]byte{1, 40, 0, 2, 60, 0, 34, 60, 0, 66, 60, 3, 2, 0, 7, 0, 0, 0, 17, 200, 6, 34, 0})
	f.Add([]byte{0, 255, 0, 17, 10, 0, 49, 10, 1, 17, 0, 6, 49, 0, 7, 0, 0, 0, 17, 10})
	f.Add([]byte{1, 9, 0, 16, 20, 3, 16, 0, 0, 17, 20, 3, 17, 0, 6, 16, 0, 3, 16, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		kind := Kind(prog[0] & 1)
		capBytes := 16 + int(prog[1])*8
		c := NewValues(capBytes, NewPolicy(kind))
		ref := newRefValues(capBytes, NewPolicy(kind))
		val := make([]byte, capBytes/4+32)
		for i := 2; i+2 < len(prog); i += 3 {
			op, kb, vb := prog[i]%8, prog[i+1], prog[i+2]
			key := fuzzKey(kb)
			n := int(vb) * len(val) / 255
			for j := range val[:n] {
				val[j] = byte(i + j)
			}
			if len(key) > nvme.MaxKeySize {
				if _, ok := c.Get(key); ok {
					t.Fatalf("op %d: long key hit", i)
				}
				if evicted, admitted := c.Put(key, val[:n]); admitted || evicted != 0 {
					t.Fatalf("op %d: long key put evicted=%d admitted=%v", i, evicted, admitted)
				}
				if c.Invalidate(key) {
					t.Fatalf("op %d: long key invalidated", i)
				}
				continue
			}
			switch {
			case op < 3:
				e1, a1 := c.Put(key, val[:n])
				e2, a2 := ref.Put(key, val[:n])
				if e1 != e2 || a1 != a2 {
					t.Fatalf("op %d: Put(%q, %d B) = %d, %v; reference %d, %v", i, key, n, e1, a1, e2, a2)
				}
			case op < 6:
				v1, ok1 := c.Get(key)
				v2, ok2 := ref.Get(key)
				if ok1 != ok2 || !bytes.Equal(v1, v2) {
					t.Fatalf("op %d: Get(%q) = %d B, %v; reference %d B, %v", i, key, len(v1), ok1, len(v2), ok2)
				}
			case op == 6:
				if got, want := c.Invalidate(key), ref.Invalidate(key); got != want {
					t.Fatalf("op %d: Invalidate(%q) = %v; reference %v", i, key, got, want)
				}
			default:
				c.Reset()
				ref.Reset()
			}
			if c.Len() != len(ref.idx) || c.used != ref.used {
				t.Fatalf("op %d: len %d used %d; reference len %d used %d", i, c.Len(), c.used, len(ref.idx), ref.used)
			}
			live := make([]bool, len(c.ents))
			for s := range c.ents {
				live[s] = c.ents[s].live
			}
			checkIndex(t, i, &c.idx, live)
		}
	})
}

// fuzzKey is the key FuzzValues names by kb: 0 to 17 repeats of one of four
// letters.
func fuzzKey(kb byte) []byte { return bytes.Repeat([]byte{'a' + kb>>5&3}, int(kb&31)%18) }

// TestValuesCorpusWraps replays the puts that open each committed FuzzValues
// program into an index. Its lead keys were chosen so that, while the table
// still has its first 16 positions, some probe run wraps past the end: a
// change to the key's packing or hash that stops them wrapping fails here
// instead of quietly taking that case out of fuzz-smoke.
func TestValuesCorpusWraps(t *testing.T) {
	for _, name := range []string{"many_keys_wrap_lru", "many_keys_wrap_2q"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzValues", name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		prog, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-value corpus file (%v)", name, err)
		}
		var x index
		wrapped := false
		for i := 2; i+2 < len(prog) && prog[i]%8 < 3 && len(x.tab) <= 16; i += 3 {
			if k := sim.KeyOf(fuzzKey(prog[i+1])); x.get(k) < 0 {
				x.put(k)
			}
			for pos, s := range x.tab {
				wrapped = wrapped || len(x.tab) == 16 && s != 0 && pos < int(x.keys[s-1].Hash())&15
			}
		}
		if !wrapped {
			t.Errorf("%s: no probe run of its lead keys wraps the 16-position table", name)
		}
	}
}

// refPages is the page tier as it was before it shared the value tier's
// index: a map[int]int from page number to slot. FuzzPages holds the tier to
// it.
type refPages struct {
	pol      Policy
	idx      map[int]int
	pageOf   []int
	free     []int
	capPages int
}

func (c *refPages) Get(page int) bool {
	s, ok := c.idx[page]
	if ok {
		c.pol.Touch(s)
	}
	return ok
}

func (c *refPages) Put(page int) (evicted int) {
	if s, ok := c.idx[page]; ok {
		c.dropSlot(s)
		c.pol.Remove(s)
	}
	for len(c.idx) >= c.capPages {
		v := c.pol.Evict()
		if v < 0 {
			return evicted
		}
		c.dropSlot(v)
		evicted++
	}
	var s int
	if n := len(c.free); n > 0 {
		s, c.free = c.free[n-1], c.free[:n-1]
	} else {
		c.pageOf = append(c.pageOf, -1)
		s = len(c.pageOf) - 1
	}
	c.pageOf[s] = page
	c.idx[page] = s
	c.pol.Admit(s)
	return evicted
}

func (c *refPages) Invalidate(page int) bool {
	s, ok := c.idx[page]
	if !ok {
		return false
	}
	c.dropSlot(s)
	c.pol.Remove(s)
	return true
}

func (c *refPages) Reset() {
	for p, s := range c.idx {
		c.free = append(c.free, s)
		delete(c.idx, p)
	}
	c.pol.Reset()
}

func (c *refPages) dropSlot(s int) {
	delete(c.idx, c.pageOf[s])
	c.pageOf[s] = -1
	c.free = append(c.free, s)
}

// FuzzPages runs one op stream through the page tier and through refPages
// and requires the same answer from both at every step, the same resident
// count, and an index that finds every live slot under its page. A program's
// first byte picks the policy, its second the capacity (1 to 64 pages); then
// every two bytes are one op (put, get, invalidate or reset) on a page number
// below 96, so numbers recycle. The committed corpus churns every number
// through a full 64-page tier under each policy.
func FuzzPages(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 0, 6, 3, 5, 3, 6, 6, 6, 0, 5, 7, 0, 3, 5})
	f.Add([]byte{1, 3, 0, 1, 0, 2, 3, 1, 0, 3, 0, 4, 3, 1, 3, 2, 6, 1, 0, 1, 7, 0, 0, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		kind := Kind(prog[0] & 1)
		capPages := 1 + int(prog[1])%64
		c := NewPages(capPages, NewPolicy(kind))
		ref := &refPages{pol: NewPolicy(kind), idx: make(map[int]int), capPages: capPages}
		for i := 2; i+1 < len(prog); i += 2 {
			op, page := prog[i]%8, int(prog[i+1])%96
			switch {
			case op < 3:
				if got, want := c.Put(page), ref.Put(page); got != want {
					t.Fatalf("op %d: Put(%d) evicted %d; reference %d", i, page, got, want)
				}
			case op < 6:
				if got, want := c.Get(page), ref.Get(page); got != want {
					t.Fatalf("op %d: Get(%d) = %v; reference %v", i, page, got, want)
				}
			case op == 6:
				if got, want := c.Invalidate(page), ref.Invalidate(page); got != want {
					t.Fatalf("op %d: Invalidate(%d) = %v; reference %v", i, page, got, want)
				}
			default:
				c.Reset()
				ref.Reset()
			}
			if c.idx.n != len(ref.idx) || c.idx.n > capPages {
				t.Fatalf("op %d: %d pages resident; reference %d, capacity %d", i, c.idx.n, len(ref.idx), capPages)
			}
			live := make([]bool, len(c.idx.keys))
			for s := range live {
				live[s] = true
			}
			for _, s := range c.idx.free {
				live[s] = false
			}
			checkIndex(t, i, &c.idx, live)
		}
	})
}

// TestIndexWrapsAndShifts files keys whose probe runs cross the end of a
// 16-position table and deletes them in every order: after each deletion the
// index must still find every remaining slot, so a backward shift may move an
// entry across the end but never past its home.
func TestIndexWrapsAndShifts(t *testing.T) {
	var keys []sim.Key
	need := map[int]int{15: 3, 0: 2, 14: 1} // home position -> keys wanted
	for p := 0; len(keys) < 6; p++ {
		if h := int(pageKey(p).Hash()) & 15; need[h] > 0 {
			need[h]--
			keys = append(keys, pageKey(p))
		}
	}
	order := []int{0, 1, 2, 3, 4, 5}
	var permute func(k int)
	permute = func(k int) {
		if k < len(order) {
			for i := k; i < len(order); i++ {
				order[k], order[i] = order[i], order[k]
				permute(k + 1)
				order[k], order[i] = order[i], order[k]
			}
			return
		}
		var x index
		live := make([]bool, len(keys))
		for _, k := range keys {
			live[x.put(k)] = true
		}
		if len(x.tab) != 16 || x.tab[0] == 0 || x.tab[1] == 0 {
			t.Fatalf("table %v: the probe runs do not wrap", x.tab)
		}
		for _, s := range order {
			x.drop(s)
			live[s] = false
			checkIndex(t, s, &x, live)
			if got := x.get(keys[s]); got != -1 {
				t.Fatalf("deleted slot %d still found as %d", s, got)
			}
		}
	}
	permute(0)
}
