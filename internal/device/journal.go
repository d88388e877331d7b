package device

import "bandslim/internal/vlog"

// The index journal is the device's battery-backed record of every LSM
// insert since the last durable point (the last committed tree flush). The
// paper's platform rides out power loss with battery-backed device DRAM for
// the page buffer (§2.2); the journal extends the same protection to the
// index: a write is acknowledged once its value sits in the battery-backed
// vLog buffer and its (key, addr, size) record sits here. On mount the tree
// is rolled back to its last committed catalog and the journal is replayed
// into a fresh MemTable, which restores every acknowledged write.
//
// The journal lives in an arena (records index into one growing byte slab)
// so steady-state appends allocate nothing once the slab reaches its working
// size. A successful tree flush clears it via the tree's OnDurable hook.

// journalRecord is one index update: a put (addr, size) or a tombstone.
type journalRecord struct {
	keyOff int
	keyLen int
	addr   vlog.Addr
	size   uint32
	tomb   bool
}

// journalRecordOverhead is the non-key size of one record in battery-backed
// DRAM: keyLen u8 + addr i64 + size u32 + flags u8. Mount replay charges a
// device memcpy of key+overhead per record.
const journalRecordOverhead = 1 + 8 + 4 + 1

type journal struct {
	recs  []journalRecord
	arena []byte
}

func (j *journal) append(key []byte, addr vlog.Addr, size uint32, tomb bool) {
	off := len(j.arena)
	j.arena = append(j.arena, key...)
	j.recs = append(j.recs, journalRecord{keyOff: off, keyLen: len(key), addr: addr, size: size, tomb: tomb})
}

func (j *journal) reset() {
	j.recs = j.recs[:0]
	j.arena = j.arena[:0]
}

func (j *journal) len() int { return len(j.recs) }
