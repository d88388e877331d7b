package nvme

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestOpcodeRoundTrip(t *testing.T) {
	var c Command
	c.SetOpcode(OpKVWrite)
	if c.Opcode() != OpKVWrite {
		t.Fatalf("Opcode = %v", c.Opcode())
	}
}

func TestOpcodeStrings(t *testing.T) {
	ops := map[Opcode]string{
		OpKVWrite: "KVWrite", OpKVTransfer: "KVTransfer", OpKVRead: "KVRead",
		OpKVDelete: "KVDelete", OpKVSeek: "KVSeek", OpKVNext: "KVNext",
		OpKVFlush: "KVFlush", Opcode(0x11): "Opcode(0x11)",
	}
	for op, want := range ops {
		if got := op.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", byte(op), got, want)
		}
	}
}

func TestCommandIDAndNamespace(t *testing.T) {
	var c Command
	c.SetCommandID(0xBEEF)
	if c.CommandID() != 0xBEEF {
		t.Fatalf("CommandID = %#x", c.CommandID())
	}
	// dword1 is the namespace; the model has one and never writes it.
	if ns := binary.LittleEndian.Uint32(c.raw[4:]); ns != 0 {
		t.Fatalf("namespace = %d", ns)
	}
}

func TestKeyRoundTripShort(t *testing.T) {
	var c Command
	key := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if err := c.SetKey(key); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.AppendKey(nil), key) {
		t.Fatalf("Key = %x, want %x", c.AppendKey(nil), key)
	}
	if c.raw[offKeySize] != 4 {
		t.Fatalf("key size = %d", c.raw[offKeySize])
	}
}

func TestKeyRoundTripLong(t *testing.T) {
	var c Command
	key := []byte("0123456789abcdef") // 16 bytes spans dword2-3 and dword14-15
	if err := c.SetKey(key); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.AppendKey(nil), key) {
		t.Fatalf("Key = %q", c.AppendKey(nil))
	}
}

func TestKeyTooLong(t *testing.T) {
	var c Command
	if err := c.SetKey(make([]byte, 17)); err == nil {
		t.Fatal("17-byte key accepted")
	}
}

func TestKeyOverwriteClearsOldBytes(t *testing.T) {
	var c Command
	if err := c.SetKey([]byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetKey([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	if got := c.AppendKey(nil); !bytes.Equal(got, []byte("xy")) {
		t.Fatalf("Key after overwrite = %q", got)
	}
}

func TestValueSizeAndPRP(t *testing.T) {
	var c Command
	c.SetValueSize(123456)
	c.SetPRP1(0xAAAA000)
	c.SetPRP2(0xBBBB000)
	if c.ValueSize() != 123456 {
		t.Fatalf("ValueSize = %d", c.ValueSize())
	}
	if prp2 := binary.LittleEndian.Uint64(c.raw[offPRP2:]); c.PRP1() != 0xAAAA000 || prp2 != 0xBBBB000 {
		t.Fatalf("PRP = %#x/%#x", c.PRP1(), prp2)
	}
}

// The write command must embed exactly 35 bytes (Fig. 6a): 24 from dword4-9,
// 3 from dword11's spare bytes, 8 from dword12-13.
func TestWritePiggybackCapacityIs35(t *testing.T) {
	var c Command
	value := make([]byte, 100)
	for i := range value {
		value[i] = byte(i + 1)
	}
	n := c.SetWritePiggyback(value)
	if n != PiggybackWriteCapacity && n != 35 {
		t.Fatalf("embedded %d bytes, want 35", n)
	}
	if got := c.AppendWritePiggyback(nil, n); !bytes.Equal(got, value[:35]) {
		t.Fatalf("extracted %x, want %x", got, value[:35])
	}
}

// Piggybacked value bytes must not clobber key, opcode, command ID, key size
// or value size fields.
func TestWritePiggybackPreservesEssentialFields(t *testing.T) {
	var c Command
	c.SetOpcode(OpKVWrite)
	c.SetCommandID(7)
	binary.LittleEndian.PutUint32(c.raw[4:], 1) // dword1: namespace
	key := []byte{1, 2, 3, 4}
	if err := c.SetKey(key); err != nil {
		t.Fatal(err)
	}
	c.SetValueSize(999)
	payload := bytes.Repeat([]byte{0xFF}, 35)
	c.SetWritePiggyback(payload)
	if c.Opcode() != OpKVWrite || c.CommandID() != 7 || binary.LittleEndian.Uint32(c.raw[4:]) != 1 {
		t.Fatal("dword0/1 corrupted by piggybacking")
	}
	if !bytes.Equal(c.AppendKey(nil), key) {
		t.Fatalf("key corrupted: %x", c.AppendKey(nil))
	}
	if c.ValueSize() != 999 {
		t.Fatalf("value size corrupted: %d", c.ValueSize())
	}
	if got := c.AppendWritePiggyback(nil, 35); !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted by field setters")
	}
}

// The transfer command must embed exactly 56 bytes (Fig. 6b) and keep only
// opcode/flags/commandID/namespace intact.
func TestTransferPiggybackCapacityIs56(t *testing.T) {
	var c Command
	c.SetOpcode(OpKVTransfer)
	c.SetCommandID(9)
	frag := make([]byte, 80)
	for i := range frag {
		frag[i] = byte(200 - i)
	}
	n := c.SetTransferPiggyback(frag)
	if n != PiggybackTransferCapacity && n != 56 {
		t.Fatalf("embedded %d bytes, want 56", n)
	}
	if got := c.AppendTransferPiggyback(nil, n); !bytes.Equal(got, frag[:56]) {
		t.Fatal("transfer payload mismatch")
	}
	if c.Opcode() != OpKVTransfer || c.CommandID() != 9 {
		t.Fatal("dword0 corrupted")
	}
}

func TestPiggybackPartialFill(t *testing.T) {
	var c Command
	v := []byte{9, 8, 7}
	if n := c.SetWritePiggyback(v); n != 3 {
		t.Fatalf("embedded %d", n)
	}
	if got := c.AppendWritePiggyback(nil, 3); !bytes.Equal(got, v) {
		t.Fatalf("got %v", got)
	}
	var tr Command
	if n := tr.SetTransferPiggyback(v); n != 3 {
		t.Fatalf("embedded %d", n)
	}
	if got := tr.AppendTransferPiggyback(nil, 3); !bytes.Equal(got, v) {
		t.Fatalf("got %v", got)
	}
}

func TestPiggybackExtractClampsOversizedRequest(t *testing.T) {
	var c Command
	if got := c.AppendWritePiggyback(nil, 100); len(got) != 35 {
		t.Fatalf("AppendWritePiggyback(nil, 100) returned %d bytes", len(got))
	}
	if got := c.AppendTransferPiggyback(nil, 100); len(got) != 56 {
		t.Fatalf("AppendTransferPiggyback(nil, 100) returned %d bytes", len(got))
	}
}

// §3.2's arithmetic: a 128-byte value needs 3 commands (35 + 56 + 37).
func TestTransferCommandsForMatchesPaper(t *testing.T) {
	cases := []struct{ size, want int }{
		{0, 1}, {1, 1}, {35, 1}, {36, 2}, {91, 2}, {92, 3}, {128, 3},
		{2048, 1 + (2048-35+55)/56}, // 37 total
		{4096, 1 + (4096-35+55)/56}, // 74 total
	}
	for _, c := range cases {
		if got := commandsFor(c.size); got != c.want {
			t.Errorf("commandsFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

// commandsFor fragments an n-byte value the way the driver's inline path
// does, one write command and then transfer commands, and counts them.
func commandsFor(n int) int {
	value := make([]byte, n)
	var w Command
	rest := value[w.SetWritePiggyback(value):]
	cmds := 1
	for len(rest) > 0 {
		var tr Command
		rest = rest[tr.SetTransferPiggyback(rest):]
		cmds++
	}
	return cmds
}

// Property: any value round-trips through (write cmd + transfer cmds)
// fragmentation and reassembly.
func TestPiggybackFragmentationRoundTripProperty(t *testing.T) {
	f := func(value []byte) bool {
		if len(value) > 8192 {
			value = value[:8192]
		}
		var w Command
		n := w.SetWritePiggyback(value)
		got := w.AppendWritePiggyback(nil, n)
		rest := value[n:]
		for len(rest) > 0 {
			var tr Command
			k := tr.SetTransferPiggyback(rest)
			got = append(got, tr.AppendTransferPiggyback(nil, k)...)
			rest = rest[k:]
		}
		return bytes.Equal(got, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: command count for an n-byte value is exactly
// 1 + ceil(max(0, n-35)/56).
func TestTransferCommandsForProperty(t *testing.T) {
	f := func(n uint16) bool {
		size := int(n)
		want := 1
		if size > 35 {
			want += (size - 35 + 55) / 56
		}
		return commandsFor(size) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
