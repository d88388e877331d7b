package resp

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// cmdString renders parsed args for comparison.
func cmdString(args [][]byte) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = string(a)
	}
	return strings.Join(parts, "|")
}

func TestReadCommandTable(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string // one entry per command, args joined with |
	}{
		{"multibulk", "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n", []string{"SET|k|v"}},
		{"empty_bulk", "*2\r\n$3\r\nSET\r\n$0\r\n\r\n", []string{"SET|"}},
		{"binary_bulk", "*2\r\n$3\r\nGET\r\n$3\r\n\x00\r\t\r\n", []string{"GET|\x00\r\t"}},
		{"zero_array", "*0\r\n", []string{""}},
		{"inline", "PING\r\n", []string{"PING"}},
		{"inline_args", "SET key  value\r\n", []string{"SET|key|value"}},
		{"inline_tabs", "\tGET\tk \r\n", []string{"GET|k"}},
		{"inline_lf_only", "PING\n", []string{"PING"}},
		{"inline_empty", "\r\nPING\r\n", []string{"", "PING"}},
		{
			"pipelined",
			"*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n*3\r\n$3\r\nSET\r\n$1\r\na\r\n$2\r\nbb\r\n",
			[]string{"PING", "GET|k", "SET|a|bb"},
		},
		{"mixed_inline_multibulk", "PING\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n", []string{"PING", "GET|k"}},
	}
	for _, tc := range cases {
		// Every case must parse identically from a whole buffer and from a
		// one-byte-at-a-time reader (partial reads across every boundary).
		sources := map[string]func() io.Reader{
			"whole":    func() io.Reader { return strings.NewReader(tc.in) },
			"one_byte": func() io.Reader { return iotest.OneByteReader(strings.NewReader(tc.in)) },
		}
		for srcName, src := range sources {
			t.Run(tc.name+"/"+srcName, func(t *testing.T) {
				r := NewReader(src())
				for i, want := range tc.want {
					args, err := r.ReadCommand()
					if err != nil {
						t.Fatalf("command %d: %v", i, err)
					}
					if got := cmdString(args); got != want {
						t.Fatalf("command %d: got %q, want %q", i, got, want)
					}
				}
				if _, err := r.ReadCommand(); err != io.EOF {
					t.Fatalf("after last command: err = %v, want io.EOF", err)
				}
			})
		}
	}
}

func TestReadCommandProtocolErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad_multibulk_len", "*x\r\n"},
		{"negative_multibulk", "*-1\r\n"},
		{"huge_multibulk", "*99999999\r\n"},
		{"missing_dollar", "*1\r\n:3\r\n"},
		{"bad_bulk_len", "*1\r\n$x\r\n"},
		{"negative_bulk", "*1\r\n$-1\r\n"},
		{"huge_bulk", "*1\r\n$999999999999\r\n"},
		{"missing_crlf", "*1\r\n$3\r\nabcXY"},
		{"overlong_inline", strings.Repeat("a", maxInline+2) + "\r\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(tc.in))
			_, err := r.ReadCommand()
			if err == nil {
				t.Fatal("want protocol error, got nil")
			}
			if !IsProtocol(err) {
				t.Fatalf("want ProtocolError, got %T: %v", err, err)
			}
			if !strings.HasPrefix(err.Error(), "Protocol error: ") {
				t.Fatalf("error %q lacks redis-style prefix", err)
			}
		})
	}
}

// TestReadCommandTotalSizeCap: the per-bulk and per-count limits alone still
// let one command pin MaxArgs×MaxBulk in the read buffer, so the
// whole-command cap must reject a command as soon as its declared payload
// crosses MaxCommand — before buffering the offending bulk.
func TestReadCommandTotalSizeCap(t *testing.T) {
	payload := bytes.Repeat([]byte{'x'}, MaxBulk)
	bulkHeader := "$" + strconv.Itoa(MaxBulk) + "\r\n"
	parts := []io.Reader{strings.NewReader("*5\r\n")}
	for i := 0; i < 4; i++ { // 4 × MaxBulk == MaxCommand: still legal
		parts = append(parts,
			strings.NewReader(bulkHeader),
			bytes.NewReader(payload),
			strings.NewReader("\r\n"))
	}
	// The fifth header pushes the declared total over the cap. Its payload is
	// deliberately never supplied: the reader must fail on the declaration
	// alone, or this test surfaces a non-protocol I/O error instead.
	parts = append(parts, strings.NewReader(bulkHeader))
	r := NewReader(io.MultiReader(parts...))
	_, err := r.ReadCommand()
	if !IsProtocol(err) {
		t.Fatalf("err = %v, want protocol error", err)
	}
	if !strings.Contains(err.Error(), "too big multibulk command") {
		t.Fatalf("err = %q, want whole-command size error", err)
	}
}

// Protocol error text must stay single-line even when the offending byte is
// CR or LF; a raw line break inside it would split the server's -ERR echo
// into a malformed extra reply line.
func TestProtocolErrorQuotesRawBytes(t *testing.T) {
	for _, in := range []string{"*1\r\n\n", "*1\r\n\rjunk"} {
		r := NewReader(strings.NewReader(in))
		_, err := r.ReadCommand()
		if !IsProtocol(err) {
			t.Fatalf("input %q: err = %v, want protocol error", in, err)
		}
		if strings.ContainsAny(err.Error(), "\r\n") {
			t.Fatalf("input %q: error text %q contains raw CR/LF", in, err.Error())
		}
	}
	r := NewReader(strings.NewReader("\rX\r\n"))
	if _, err := r.ReadReply(); !IsProtocol(err) || strings.ContainsAny(err.Error(), "\r\n") {
		t.Fatalf("reply side: err = %v, want single-line protocol error", err)
	}
}

func TestWriterErrorSanitizesCRLF(t *testing.T) {
	var out bytes.Buffer
	w := NewWriter(&out)
	w.Error("ERR bad\r\nbyte")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "-ERR bad  byte\r\n"; got != want {
		t.Fatalf("encoded %q, want %q", got, want)
	}
}

func TestReadCommandTruncated(t *testing.T) {
	// Truncated input must surface as an I/O error, not a protocol error:
	// the bytes so far were valid.
	for _, in := range []string{"*2\r\n$3\r\nGET\r\n", "*1\r\n$3\r\nab", "*1\r\n", "$"} {
		r := NewReader(strings.NewReader(in))
		_, err := r.ReadCommand()
		if err == nil || IsProtocol(err) {
			t.Fatalf("input %q: err = %v, want non-protocol error", in, err)
		}
	}
}

func TestReaderViewLifetime(t *testing.T) {
	// Views stay valid until the next ReadCommand, including when the
	// second command forces a buffer refill/compaction.
	big := strings.Repeat("v", 5000)
	in := "*2\r\n$3\r\nGET\r\n$4\r\nkey1\r\n*3\r\n$3\r\nSET\r\n$4\r\nkey2\r\n$5000\r\n" + big + "\r\n"
	r := NewReader(iotest.HalfReader(strings.NewReader(in)))
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if cmdString(args) != "GET|key1" {
		t.Fatalf("first command = %q", cmdString(args))
	}
	args, err = r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[0]) != "SET" || string(args[1]) != "key2" || string(args[2]) != big {
		t.Fatalf("second command mismatch: %d args", len(args))
	}
}

func TestWriterEncodings(t *testing.T) {
	var out bytes.Buffer
	w := NewWriter(&out)
	w.Simple("OK")
	w.Error("ERR boom")
	w.Int(-42)
	w.Bulk([]byte("hello"))
	w.BulkString("")
	w.Null()
	w.Array(2)
	w.Command([]byte("GET"), []byte("k"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-ERR boom\r\n:-42\r\n$5\r\nhello\r\n$0\r\n\r\n$-1\r\n*2\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
	if out.String() != want {
		t.Fatalf("encoded %q, want %q", out.String(), want)
	}
	if w.BytesWritten() != int64(len(want)) {
		t.Fatalf("BytesWritten = %d, want %d", w.BytesWritten(), len(want))
	}
}

func TestWriterRoundTrip(t *testing.T) {
	var out bytes.Buffer
	w := NewWriter(&out)
	w.Simple("PONG")
	w.Int(7)
	w.Bulk([]byte("val"))
	w.Null()
	w.Array(2)
	w.Bulk([]byte("a"))
	w.Bulk([]byte("b"))
	w.Error("ERR nope")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(iotest.OneByteReader(&out))
	expect := func(want Reply, wantStr string) {
		t.Helper()
		got, err := r.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.Int != want.Int || got.N != want.N || got.Null != want.Null || string(got.Str) != wantStr {
			t.Fatalf("reply = %+v (str %q), want %+v (str %q)", got, got.Str, want, wantStr)
		}
	}
	expect(Reply{Kind: KindSimple}, "PONG")
	expect(Reply{Kind: KindInteger, Int: 7}, "")
	expect(Reply{Kind: KindBulk}, "val")
	expect(Reply{Kind: KindBulk, Null: true}, "")
	expect(Reply{Kind: KindArray, N: 2}, "")
	expect(Reply{Kind: KindBulk}, "a")
	expect(Reply{Kind: KindBulk}, "b")
	expect(Reply{Kind: KindError}, "ERR nope")
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestReadReplyNullArray(t *testing.T) {
	r := NewReader(strings.NewReader("*-1\r\n"))
	rep, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindArray || !rep.Null || rep.N != -1 {
		t.Fatalf("reply = %+v, want null array", rep)
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	w.Simple("OK")
	if err := w.Flush(); err == nil {
		t.Fatal("want flush error")
	}
	w.Simple("OK")
	if err := w.Flush(); err == nil {
		t.Fatal("error must stick")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("wire down") }

func TestReaderSteadyStateAllocs(t *testing.T) {
	// After warm-up, parsing a pipelined SET+GET pair allocates nothing:
	// the hot service path depends on it.
	in := []byte("*3\r\n$3\r\nSET\r\n$4\r\nkey1\r\n$8\r\nvvvvvvvv\r\n*2\r\n$3\r\nGET\r\n$4\r\nkey1\r\n")
	src := bytes.NewReader(in)
	r := NewReader(src)
	parseAll := func() {
		src.Reset(in) // r reads on from the rewound stream
		for {
			if _, err := r.ReadCommand(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	}
	parseAll() // warm the buffer
	if avg := testing.AllocsPerRun(200, parseAll); avg != 0 {
		t.Fatalf("steady-state parse allocates %.2f objects/run, want 0", avg)
	}

	var sink discardWriter
	w := NewWriter(&sink)
	encodeAll := func() {
		w.Simple("OK")
		w.Bulk(in[:8])
		w.Null()
		w.Int(3)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	encodeAll()
	if avg := testing.AllocsPerRun(200, encodeAll); avg != 0 {
		t.Fatalf("steady-state encode allocates %.2f objects/run, want 0", avg)
	}
}

type discardWriter struct{}

func (*discardWriter) Write(p []byte) (int, error) { return len(p), nil }
