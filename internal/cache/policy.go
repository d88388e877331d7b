// Replacement policies for the device-DRAM read caches. Both run over
// slot indices (the caches own the entry storage; the policy only orders
// residency), are deterministic — no wall clock, no randomness — and are
// allocation-free in steady state: the intrusive linked lists grow their
// backing arrays to the high-water slot count once and then recycle.
package cache

import "fmt"

// Kind selects a replacement policy.
type Kind int

const (
	// LRU evicts the least-recently-used entry (an intrusive recency list).
	LRU Kind = iota
	// TwoQ keeps new entries in a FIFO probation queue (A1in) and promotes
	// them to a protected LRU (Am) on their second access, so one-touch
	// scans cannot flush the hot set.
	TwoQ
)

func (k Kind) String() string {
	switch k {
	case LRU:
		return "lru"
	case TwoQ:
		return "2q"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind converts a policy name back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "lru", "LRU":
		return LRU, nil
	case "2q", "2Q", "twoq":
		return TwoQ, nil
	}
	return 0, fmt.Errorf("cache: unknown policy %q", s)
}

// Policy orders resident slots for eviction. The caches call Admit when a
// slot becomes resident, Touch on every hit, Evict to pick (and forget) a
// victim, and Remove on invalidation. Implementations never allocate after
// their arrays reach the high-water slot index.
type Policy interface {
	Admit(slot int)
	Touch(slot int)
	// Evict removes and returns the policy's victim slot, or -1 when empty.
	Evict() int
	Remove(slot int)
	Reset()
}

// NewPolicy builds the policy for a Kind (unknown kinds fall back to LRU).
func NewPolicy(k Kind) Policy {
	switch k {
	case TwoQ:
		return &twoQPolicy{in: newList(), am: newList()}
	default:
		return &lruPolicy{list: newList()}
	}
}

// list is an intrusive doubly-linked list over slot indices. Front is the
// most-recent end; back is the eviction end.
type list struct {
	head, tail int
	prev, next []int
	n          int
}

func newList() list { return list{head: -1, tail: -1} }

func (l *list) grow(slot int) {
	for len(l.prev) <= slot {
		l.prev = append(l.prev, -1)
		l.next = append(l.next, -1)
	}
}

func (l *list) pushFront(s int) {
	l.grow(s)
	l.prev[s] = -1
	l.next[s] = l.head
	if l.head >= 0 {
		l.prev[l.head] = s
	}
	l.head = s
	if l.tail < 0 {
		l.tail = s
	}
	l.n++
}

func (l *list) remove(s int) {
	p, nx := l.prev[s], l.next[s]
	if p >= 0 {
		l.next[p] = nx
	} else {
		l.head = nx
	}
	if nx >= 0 {
		l.prev[nx] = p
	} else {
		l.tail = p
	}
	l.prev[s], l.next[s] = -1, -1
	l.n--
}

func (l *list) reset() {
	l.head, l.tail, l.n = -1, -1, 0
}

// lruPolicy is the recency list: Touch moves to front, Evict takes the back.
type lruPolicy struct{ list list }

func (p *lruPolicy) Admit(s int) { p.list.pushFront(s) }
func (p *lruPolicy) Touch(s int) {
	if p.list.head == s {
		return
	}
	p.list.remove(s)
	p.list.pushFront(s)
}
func (p *lruPolicy) Evict() int {
	s := p.list.tail
	if s < 0 {
		return -1
	}
	p.list.remove(s)
	return s
}
func (p *lruPolicy) Remove(s int) { p.list.remove(s) }
func (p *lruPolicy) Reset()       { p.list.reset() }

// twoQKinDen bounds the probation queue to 1/twoQKinDen of residency.
const twoQKinDen = 4

// twoQPolicy is simplified 2Q: admissions enter the A1in FIFO; a second
// access promotes to the protected Am LRU; eviction demotes from A1in while
// it exceeds its share, else takes Am's LRU tail.
type twoQPolicy struct {
	in, am list
	where  []uint8 // 0 = untracked, 1 = A1in, 2 = Am
}

func (p *twoQPolicy) growWhere(s int) {
	for len(p.where) <= s {
		p.where = append(p.where, 0)
	}
}

func (p *twoQPolicy) Admit(s int) {
	p.growWhere(s)
	p.where[s] = 1
	p.in.pushFront(s)
}

func (p *twoQPolicy) Touch(s int) {
	switch p.where[s] {
	case 1: // promotion: second access graduates probation
		p.in.remove(s)
		p.am.pushFront(s)
		p.where[s] = 2
	case 2:
		if p.am.head != s {
			p.am.remove(s)
			p.am.pushFront(s)
		}
	}
}

func (p *twoQPolicy) Evict() int {
	total := p.in.n + p.am.n
	if total == 0 {
		return -1
	}
	// Demote from probation while it holds more than its share (or the
	// protected list is empty).
	if p.in.n > 0 && (p.am.n == 0 || p.in.n*twoQKinDen > total) {
		s := p.in.tail
		p.in.remove(s)
		p.where[s] = 0
		return s
	}
	s := p.am.tail
	p.am.remove(s)
	p.where[s] = 0
	return s
}

func (p *twoQPolicy) Remove(s int) {
	switch p.where[s] {
	case 1:
		p.in.remove(s)
	case 2:
		p.am.remove(s)
	}
	p.where[s] = 0
}

func (p *twoQPolicy) Reset() {
	p.in.reset()
	p.am.reset()
	for i := range p.where {
		p.where[i] = 0
	}
}
