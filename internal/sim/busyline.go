package sim

// BusyLine models a resource that can serve one operation at a time, such as
// a NAND way, a NAND channel, or the DMA engine. Operations scheduled on the
// line queue behind one another; the line remembers only the time at which it
// becomes free, which is all a non-preemptive FIFO resource needs.
type BusyLine struct {
	freeAt Time
	busy   Duration // total busy time, for utilization accounting
}

// Schedule books an operation of length d that becomes eligible at time t.
// It returns the operation's start and end times. The resource is occupied
// during [start, end).
func (b *BusyLine) Schedule(t Time, d Duration) (start, end Time) {
	start = t
	if b.freeAt > start {
		start = b.freeAt
	}
	end = start.Add(d)
	b.freeAt = end
	b.busy += d
	return start, end
}

// Utilization reports the fraction of [0, now] the resource spent busy.
func (b *BusyLine) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(b.busy) / float64(now)
}
