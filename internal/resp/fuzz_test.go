package resp

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzRESPParse throws arbitrary bytes at the command parser and checks the
// invariants the server relies on: no panics, every outcome is a command /
// clean EOF / typed error, errors are stable across read chunking, and every
// successfully parsed command re-encodes to a byte stream that parses back
// to the same arguments (round-trip through the Writer).
func FuzzRESPParse(f *testing.F) {
	seeds := [][]byte{
		[]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"),
		[]byte("*2\r\n$3\r\nGET\r\n$4\r\nkey1\r\n"),
		[]byte("*1\r\n$4\r\nPING\r\n*0\r\n"),
		[]byte("PING\r\n"),
		[]byte("SET key value\r\n"),
		[]byte("*2\r\n$3\r\nDEL\r\n$16\r\n0123456789abcdef\r\n"),
		[]byte("*-1\r\n"),
		[]byte("*1\r\n$-1\r\n"),
		[]byte("$5\r\nhello\r\n"),
		[]byte("*2\r\n$3\r\nGET\r\n$999999999999\r\n"),
		[]byte("\r\n\r\n*1\r\n$0\r\n\r\n"),
		[]byte(":42\r\n+OK\r\n-ERR x\r\n"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		parse := func(r io.Reader) ([][]string, error) {
			rd := NewReader(r)
			var cmds [][]string
			for {
				args, err := rd.ReadCommand()
				if err != nil {
					return cmds, err
				}
				cmd := make([]string, len(args))
				for i, a := range args {
					cmd[i] = string(a)
				}
				cmds = append(cmds, cmd)
			}
		}

		whole, errWhole := parse(bytes.NewReader(data))
		bytewise, errByte := parse(iotest.OneByteReader(bytes.NewReader(data)))

		// Chunking must not change what parses or how it fails.
		if IsProtocol(errWhole) != IsProtocol(errByte) {
			t.Fatalf("chunking changed error class: whole=%v bytewise=%v", errWhole, errByte)
		}
		if len(whole) != len(bytewise) {
			t.Fatalf("chunking changed command count: %d vs %d", len(whole), len(bytewise))
		}
		for i := range whole {
			if len(whole[i]) != len(bytewise[i]) {
				t.Fatalf("command %d: arg count differs", i)
			}
			for j := range whole[i] {
				if whole[i][j] != bytewise[i][j] {
					t.Fatalf("command %d arg %d differs", i, j)
				}
			}
		}
		// Every non-EOF failure must be a typed protocol error; plain I/O
		// errors can only be EOF-shaped here (the sources never fail).
		if errWhole != nil && !IsProtocol(errWhole) && errWhole != io.EOF && errWhole != io.ErrUnexpectedEOF {
			t.Fatalf("unexpected error type %T: %v", errWhole, errWhole)
		}

		// Round-trip: re-encode each parsed command as a multibulk array and
		// parse it back.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, cmd := range whole {
			w.Array(len(cmd))
			for _, a := range cmd {
				w.BulkString(a)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := parse(&buf)
		if err != io.EOF {
			t.Fatalf("re-encoded stream failed to parse: %v", err)
		}
		if len(again) != len(whole) {
			t.Fatalf("round trip lost commands: %d vs %d", len(again), len(whole))
		}
		for i := range whole {
			if len(again[i]) != len(whole[i]) {
				t.Fatalf("round trip changed command %d arg count", i)
			}
			for j := range whole[i] {
				if whole[i][j] != again[i][j] {
					t.Fatalf("round trip changed command %d arg %d", i, j)
				}
			}
		}
	})
}

// chunkReader delivers data in reads sized by sizes, cycled (each size byte
// s reads s+1 bytes; no sizes means one read of everything).
type chunkReader struct {
	data, sizes []byte
	i           int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(c.data)
	if len(c.sizes) > 0 {
		n = int(c.sizes[c.i%len(c.sizes)]) + 1
		c.i++
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	return n, nil
}

// FuzzRESPBurst parses a stream as the server does — a blocking ReadCommand,
// then ReadBufferedCommand until no whole command is buffered — over an
// arbitrary read chunking, and checks it against ReadCommand alone over the
// same chunking: the same commands, the same first error, and every view a
// burst returned still holding its bytes when the burst ends.
func FuzzRESPBurst(f *testing.F) {
	seeds := [][]byte{
		[]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"),
		[]byte("PING\r\nSET k v\r\n\r\nGET k\r\n*1\r\n$4\r\nPING\r\n"),
		[]byte("*1\r\n$4\r\nPING\r\n*1\r\n:3\r\n*1\r\n$4\r\nPING\r\n"),
		[]byte("*2\r\n$3\r\nGET\r\n$999999999999\r\n"),
		[]byte("\r\n\r\n*1\r\n$0\r\n\r\n*0\r\n"),
	}
	for _, s := range seeds {
		f.Add(s, []byte(nil))
		f.Add(s, []byte{0})
		f.Add(s, []byte{6, 2, 17})
	}
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		var alone []string
		rd := NewReader(&chunkReader{data: data, sizes: sizes})
		var errAlone error
		for {
			args, err := rd.ReadCommand()
			if err != nil {
				errAlone = err
				break
			}
			alone = append(alone, fmt.Sprintf("%q", args))
		}

		var burst []string
		rd = NewReader(&chunkReader{data: data, sizes: sizes})
		var errBurst error
		var views [][]byte
		var held []string
		for errBurst == nil {
			args, err := rd.ReadCommand()
			views, held = views[:0], held[:0]
			for err == nil {
				burst = append(burst, fmt.Sprintf("%q", args))
				for _, a := range args {
					views = append(views, a)
					held = append(held, string(a))
				}
				var ok bool
				if args, ok, err = rd.ReadBufferedCommand(); !ok && err == nil {
					break
				}
			}
			for i, v := range views {
				if string(v) != held[i] {
					t.Fatalf("a view of the burst changed from %q to %q before the burst ended", held[i], v)
				}
			}
			errBurst = err
		}

		if len(burst) != len(alone) {
			t.Fatalf("burst parse yielded %d commands, ReadCommand alone %d", len(burst), len(alone))
		}
		for i := range alone {
			if burst[i] != alone[i] {
				t.Fatalf("command %d: burst parse %s, ReadCommand alone %s", i, burst[i], alone[i])
			}
		}
		if errBurst.Error() != errAlone.Error() {
			t.Fatalf("burst parse failed with %v, ReadCommand alone with %v", errBurst, errAlone)
		}
	})
}
