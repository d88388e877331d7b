// Package nvme models the NVMe key-value command set as BandSlim extends it:
// 64-byte submission entries with a dword-accurate field layout, the two
// piggybacking command formats of Fig. 6 (35 usable bytes in the write
// command, 56 in the transfer command), PRP lists, and submission/completion
// queue rings with doorbell registers.
package nvme

import (
	"encoding/binary"
	"fmt"
)

// Opcode identifies a key-value command.
type Opcode byte

// Key-value command set opcodes. Values are from the vendor-specific range;
// only their distinctness matters to the simulation.
const (
	OpInvalid Opcode = 0x00
	// OpKVWrite is the initial write command: key, metadata, and up to
	// PiggybackWriteCapacity inline value bytes (Fig. 6a).
	OpKVWrite Opcode = 0x81
	// OpKVTransfer is the trailing command carrying up to
	// PiggybackTransferCapacity more value bytes (Fig. 6b).
	OpKVTransfer Opcode = 0x82
	// OpKVRead retrieves a value by key via PRP-described host pages.
	OpKVRead Opcode = 0x83
	// OpKVDelete removes a key.
	OpKVDelete Opcode = 0x84
	// OpKVSeek positions a device-side iterator at the first key >= the
	// command key.
	OpKVSeek Opcode = 0x85
	// OpKVNext returns the next key-value pair from the device-side
	// iterator.
	OpKVNext Opcode = 0x86
	// OpKVFlush forces the MemTable and NAND page buffer to NAND.
	OpKVFlush Opcode = 0x87
	// OpKVBatchWrite delivers multiple key-value records in one PRP
	// payload — the host-side batching approach of Dotori/KV-CSD the
	// paper contrasts with (§2: bulk PUT risks data loss on power failure
	// and costs the device an unpacking pass).
	OpKVBatchWrite Opcode = 0x88
	// OpKVCompact runs WiscKey-style vLog garbage collection: live values
	// in the oldest N pages (valueSize field) relocate to the log head and
	// the pages are reclaimed.
	OpKVCompact Opcode = 0x89
	// OpAdminIdentify returns the controller's 4 KiB identify structure —
	// the device-management utility NVMe compatibility preserves (§1).
	OpAdminIdentify Opcode = 0x06
)

func (o Opcode) String() string {
	switch o {
	case OpKVWrite:
		return "KVWrite"
	case OpKVTransfer:
		return "KVTransfer"
	case OpKVRead:
		return "KVRead"
	case OpKVDelete:
		return "KVDelete"
	case OpKVSeek:
		return "KVSeek"
	case OpKVNext:
		return "KVNext"
	case OpKVFlush:
		return "KVFlush"
	case OpKVBatchWrite:
		return "KVBatchWrite"
	case OpKVCompact:
		return "KVCompact"
	case OpAdminIdentify:
		return "AdminIdentify"
	default:
		return fmt.Sprintf("Opcode(0x%02x)", byte(o))
	}
}

// Sizes fixed by the NVMe specification and the BandSlim command layout.
const (
	// CommandSize is the size of a submission queue entry.
	CommandSize = 64
	// MaxKeySize is the NVMe KV command set's inline key capacity
	// (dwords 2-3 and 14-15).
	MaxKeySize = 16
	// PiggybackWriteCapacity is the inline value capacity of the write
	// command: dword4-9 (24 B) + 3 spare bytes of dword11 + dword12-13
	// (8 B) = 35 B (§3.2).
	PiggybackWriteCapacity = 35
	// PiggybackTransferCapacity is the inline value capacity of the
	// transfer command: every dword except dword0 (opcode/flags/ID) and
	// dword1 (namespace) = 56 B (§3.2).
	PiggybackTransferCapacity = 56
)

// Byte offsets of the command fields (dword n occupies bytes 4n..4n+3).
const (
	offOpcode    = 0  // dword0 byte 0
	offFlags     = 1  // dword0 byte 1: P/F flags
	offCommandID = 2  // dword0 bytes 2-3
	offKeyLow    = 8  // dword2-3: key[0:8]
	offMeta      = 16 // dword4-5: metadata pointer (PRP)
	offPRP1      = 24 // dword6-7
	offPRP2      = 32 // dword8-9
	offValueSize = 40 // dword10
	offKeySize   = 44 // dword11 byte 0
	offDw11Spare = 45 // dword11 bytes 1-3 (reserved ×2 + option)
	offReserved  = 48 // dword12-13
	offKeyHigh   = 56 // dword14-15: key[8:16]
)

// Command is one 64-byte NVMe submission queue entry. The zero value is an
// empty (invalid) command.
type Command struct {
	raw [CommandSize]byte
}

// SetOpcode stores the opcode in dword0.
func (c *Command) SetOpcode(o Opcode) { c.raw[offOpcode] = byte(o) }

// Opcode reads the opcode from dword0.
func (c *Command) Opcode() Opcode { return Opcode(c.raw[offOpcode]) }

// TransferMode describes how a write command's value payload travels,
// encoded in the dword0 flags byte (the analog of NVMe's PSDT field, which
// likewise selects PRP vs. SGL). dword0 is never repurposed for
// piggybacking, so the flag survives inline transfers.
type TransferMode byte

// Transfer modes of §3.2.
const (
	// ModePRP: the value travels by PRP-described page-unit DMA (baseline).
	ModePRP TransferMode = 0
	// ModeInline: the value is piggybacked in command fields; values larger
	// than the write command's capacity continue in transfer commands.
	ModeInline TransferMode = 1
	// ModeHybrid: the page-aligned head travels by DMA, the tail is
	// piggybacked in trailing transfer commands.
	ModeHybrid TransferMode = 2
	// ModeSGL: the value travels by Scatter-Gather List — exact bytes on
	// the wire but with the setup cost that makes SGL uneconomical below
	// ~32 KB (§2.5). Provided as the comparator the paper rules out.
	ModeSGL TransferMode = 3
)

func (m TransferMode) String() string {
	switch m {
	case ModePRP:
		return "PRP"
	case ModeInline:
		return "Inline"
	case ModeHybrid:
		return "Hybrid"
	case ModeSGL:
		return "SGL"
	default:
		return fmt.Sprintf("TransferMode(%d)", byte(m))
	}
}

// SetTransferMode stores the payload transfer mode in the flags byte.
func (c *Command) SetTransferMode(m TransferMode) { c.raw[offFlags] = byte(m) }

// TransferMode reads the payload transfer mode.
func (c *Command) TransferMode() TransferMode { return TransferMode(c.raw[offFlags]) }

// SetCommandID stores the 16-bit command identifier.
func (c *Command) SetCommandID(id uint16) {
	binary.LittleEndian.PutUint16(c.raw[offCommandID:], id)
}

// CommandID reads the 16-bit command identifier.
func (c *Command) CommandID() uint16 {
	return binary.LittleEndian.Uint16(c.raw[offCommandID:])
}

// SetKey stores a key of up to MaxKeySize bytes across dwords 2-3 and 14-15
// and records its length in dword11. Longer keys are an error.
func (c *Command) SetKey(key []byte) error {
	if len(key) > MaxKeySize {
		return fmt.Errorf("nvme: key length %d exceeds %d", len(key), MaxKeySize)
	}
	for i := range c.raw[offKeyLow : offKeyLow+8] {
		c.raw[offKeyLow+i] = 0
	}
	for i := range c.raw[offKeyHigh : offKeyHigh+8] {
		c.raw[offKeyHigh+i] = 0
	}
	low := key
	if len(low) > 8 {
		low = key[:8]
		copy(c.raw[offKeyHigh:], key[8:])
	}
	copy(c.raw[offKeyLow:], low)
	c.raw[offKeySize] = byte(len(key))
	return nil
}

// AppendKey appends the command's key to dst and returns the extended slice —
// the allocation-free reader the device's hot path uses with a reusable
// scratch buffer (AppendKey(scratch[:0])).
func (c *Command) AppendKey(dst []byte) []byte {
	n := int(c.raw[offKeySize])
	if n > MaxKeySize {
		n = MaxKeySize
	}
	low := n
	if low > 8 {
		low = 8
	}
	dst = append(dst, c.raw[offKeyLow:offKeyLow+low]...)
	if n > 8 {
		dst = append(dst, c.raw[offKeyHigh:offKeyHigh+n-8]...)
	}
	return dst
}

// SetValueSize stores the total value size in dword10; a read stores the
// size of the host buffer its PRP describes there instead.
func (c *Command) SetValueSize(n uint32) {
	binary.LittleEndian.PutUint32(c.raw[offValueSize:], n)
}

// ValueSize reads the total value size.
func (c *Command) ValueSize() uint32 {
	return binary.LittleEndian.Uint32(c.raw[offValueSize:])
}

// SetPRP1 stores the first PRP entry (dword6-7).
func (c *Command) SetPRP1(addr uint64) {
	binary.LittleEndian.PutUint64(c.raw[offPRP1:], addr)
}

// PRP1 reads the first PRP entry.
func (c *Command) PRP1() uint64 { return binary.LittleEndian.Uint64(c.raw[offPRP1:]) }

// SetPRP2 stores the second PRP entry (dword8-9): either the second page or
// a pointer to a PRP list when the payload spans more than two pages.
func (c *Command) SetPRP2(addr uint64) {
	binary.LittleEndian.PutUint64(c.raw[offPRP2:], addr)
}

// writePiggybackRegions lists the (offset, length) spans a write command may
// repurpose for inline value bytes, in shipping order.
var writePiggybackRegions = [...]struct{ off, n int }{
	{offMeta, 8},      // dword4-5: metadata pointer
	{offPRP1, 8},      // dword6-7
	{offPRP2, 8},      // dword8-9
	{offDw11Spare, 3}, // dword11 spare bytes
	{offReserved, 8},  // dword12-13
}

// SetWritePiggyback embeds up to PiggybackWriteCapacity bytes of the value
// into the write command's repurposed fields and reports how many were
// embedded. Using these fields forfeits PRP transfer for this command.
func (c *Command) SetWritePiggyback(value []byte) int {
	n := 0
	for _, r := range writePiggybackRegions {
		if n >= len(value) {
			break
		}
		n += copy(c.raw[r.off:r.off+r.n], value[n:])
	}
	return n
}

// AppendWritePiggyback appends n inline bytes from a write command to dst and
// returns the extended slice; the device reassembles values directly into its
// pending-write scratch buffer this way, with no intermediate slice.
func (c *Command) AppendWritePiggyback(dst []byte, n int) []byte {
	if n > PiggybackWriteCapacity {
		n = PiggybackWriteCapacity
	}
	got := 0
	for _, r := range writePiggybackRegions {
		if got >= n {
			break
		}
		take := n - got
		if take > r.n {
			take = r.n
		}
		dst = append(dst, c.raw[r.off:r.off+take]...)
		got += take
	}
	return dst
}

// SetTransferPiggyback embeds up to PiggybackTransferCapacity bytes into a
// transfer command (all dwords except dword0-1) and reports how many fit.
func (c *Command) SetTransferPiggyback(fragment []byte) int {
	return copy(c.raw[offKeyLow:], fragment)
}

// AppendTransferPiggyback appends n inline bytes from a transfer command to
// dst and returns the extended slice (the allocation-free variant).
func (c *Command) AppendTransferPiggyback(dst []byte, n int) []byte {
	if n > PiggybackTransferCapacity {
		n = PiggybackTransferCapacity
	}
	return append(dst, c.raw[offKeyLow:offKeyLow+n]...)
}
