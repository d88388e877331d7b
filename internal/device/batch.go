package device

import (
	"encoding/binary"
	"fmt"

	"bandslim/internal/nvme"
	"bandslim/internal/sim"
)

// Batch record wire format within an OpKVBatchWrite payload:
//
//	keyLen   uint8 (0 terminates the batch)
//	key      keyLen bytes
//	valLen   uint32
//	value    valLen bytes
//
// This is the host-side batching scheme of Dotori/KV-CSD that the paper
// contrasts with: one bulk PUT amortizes command overhead, but the device
// "faces extra overhead from unpacking" each record, and everything buffered
// on the host before submission is lost on power failure (§2).

// EncodeBatchRecord appends one record to a batch payload.
func EncodeBatchRecord(dst []byte, key, value []byte) []byte {
	dst = append(dst, byte(len(key)))
	dst = append(dst, key...)
	var vl [4]byte
	binary.LittleEndian.PutUint32(vl[:], uint32(len(value)))
	dst = append(dst, vl[:]...)
	return append(dst, value...)
}

// BatchRecordOverhead is the per-record framing cost in a batch payload.
const BatchRecordOverhead = 1 + 4

// decodeBatchRecord parses one record, returning the remainder.
func decodeBatchRecord(src []byte) (key, value, rest []byte, err error) {
	if len(src) < 1 {
		return nil, nil, nil, fmt.Errorf("device: truncated batch record")
	}
	kl := int(src[0])
	if kl == 0 {
		return nil, nil, nil, errBatchEnd
	}
	if kl > nvme.MaxKeySize || len(src) < 1+kl+4 {
		return nil, nil, nil, fmt.Errorf("device: corrupt batch record header")
	}
	key = src[1 : 1+kl]
	vl := int(binary.LittleEndian.Uint32(src[1+kl:]))
	body := src[1+kl+4:]
	if len(body) < vl {
		return nil, nil, nil, fmt.Errorf("device: batch record value truncated (%d < %d)", len(body), vl)
	}
	return key, body[:vl], body[vl:], nil
}

var errBatchEnd = fmt.Errorf("device: end of batch")

// execBatchWrite handles one bulk PUT: a single page-unit DMA delivers the
// packed records, then the controller unpacks them one by one — each record
// costs a parse plus a device memcpy into the vLog buffer (the unpacking
// overhead the paper cites), then an LSM insert.
func (d *Device) execBatchWrite(t sim.Time, cmd nvme.Command) (int, sim.Time, error) {
	total := int(cmd.ValueSize())
	if total == 0 {
		return 0, t, errBadField
	}
	payload, end, err := d.dmaValue(t, cmd, total, d.valueBuf[:0])
	if err != nil {
		return 0, t, err
	}
	d.valueBuf = payload[:0]
	count := 0
	rest := payload
	for len(rest) > 0 {
		key, value, next, err := decodeBatchRecord(rest)
		if err == errBatchEnd {
			break
		}
		if err != nil {
			return count, end, err
		}
		rest = next
		d.invalidateValue(key)
		if d.cfg.NANDEnabled {
			// Unpacking: every record is copied out of the staging
			// buffer into the packed vLog buffer, byte-granularly
			// (KAML-style all-packing — batching cannot exploit the
			// selective no-copy path because record boundaries are
			// arbitrary).
			addr, e, err := d.vlog.AppendPiggybacked(end, value)
			if err != nil {
				return count, end, err
			}
			d.jnl.append(key, addr, uint32(len(value)), false)
			end, err = d.tree.Put(e, key, addr, uint32(len(value)))
			if err != nil {
				return count, end, err
			}
		}
		count++
	}
	return count, end, nil
}
