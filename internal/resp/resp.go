// Package resp implements the subset of the RESP2 wire protocol
// (https://redis.io/docs/reference/protocol-spec/) that bandslim-server
// speaks: client → server commands as arrays of bulk strings (plus the
// space-separated inline form), and server → client replies as simple
// strings, errors, integers, bulk strings, and arrays.
//
// The codec is built for the server's zero-allocation steady state:
//
//   - Reader parses out of one growable internal buffer and returns
//     argument slices as views into it — valid until the next Read* call.
//     Refills compact consumed bytes instead of reallocating, so once the
//     buffer has grown to the connection's working command size, parsing
//     allocates nothing.
//   - Writer appends into one reusable buffer flushed explicitly, so a
//     pipelined burst of replies becomes a single socket write and integer
//     headers are formatted with strconv.AppendInt (no intermediate
//     strings).
//
// Protocol violations surface as *ProtocolError (distinguishable from I/O
// errors with errors.As), carrying a redis-style human-readable message the
// server echoes back before closing the connection, as Redis does.
package resp

import (
	"errors"
	"io"
	"strconv"
)

// Limits bounding a single command, chosen to cover everything the server
// accepts (16-byte keys, page-sized values) with headroom while keeping a
// hostile peer from ballooning the read buffer.
const (
	// MaxArgs caps the elements of one command array.
	MaxArgs = 1024
	// MaxBulk caps one bulk-string payload.
	MaxBulk = 8 << 20
	// MaxCommand caps one whole multibulk command's accumulated payload.
	// ReadCommand keeps the entire command resident until it is parsed, so
	// without this cap a hostile peer could stack MaxArgs×MaxBulk declared
	// bulks into one command and balloon the read buffer toward gigabytes;
	// with it, per-connection buffer growth is bounded by a few MaxBulk.
	MaxCommand = 4 * MaxBulk
	// maxInline caps one inline command line (also the line cap for array
	// and bulk headers, which are far shorter).
	maxInline = 64 << 10
)

// ProtocolError reports a malformed command or reply. The text follows
// Redis conventions ("Protocol error: ...") so clients display it usefully.
type ProtocolError struct{ msg string }

func (e *ProtocolError) Error() string { return e.msg }

// protoErrf keeps the error-construction path out of the parse hot loop.
func protoErr(msg string) error { return &ProtocolError{msg: "Protocol error: " + msg} }

// IsProtocol reports whether err is a protocol violation (as opposed to an
// I/O error on the underlying connection).
func IsProtocol(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}

// Reader incrementally parses RESP values from an io.Reader. It is not safe
// for concurrent use. Slices returned by ReadCommand and ReadReply are views
// into the internal buffer, valid until the next Read* call.
//
// Refills may compact or grow the buffer mid-command, which would shift any
// view taken earlier, so the multibulk parser records each argument as a
// (offset, length) span relative to mark — the start of the current command,
// which compaction preserves — and materializes the views only once the
// whole command is buffered.
type Reader struct {
	r     io.Reader
	buf   []byte
	mark  int // start of the current command; bytes before it are reclaimable
	off   int // parse position within buf
	end   int // filled extent of buf
	spans []span
	args  [][]byte
	n     int64 // total bytes consumed from r
}

// span locates one parsed argument relative to Reader.mark.
type span struct{ off, n int }

// NewReader wraps r. The internal buffer starts small and grows to the
// connection's working command size, then stays put.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, 4096)}
}

// BytesRead reports the total bytes consumed from the underlying reader.
func (r *Reader) BytesRead() int64 { return r.n }

// fill reads more bytes from the underlying reader, compacting bytes before
// mark first and growing the buffer only when the live region spans it.
// Compaction shifts buf[mark:end] to the front, so spans relative to mark
// stay valid.
func (r *Reader) fill() error {
	if r.mark > 0 {
		r.end = copy(r.buf, r.buf[r.mark:r.end])
		r.off -= r.mark
		r.mark = 0
	}
	if r.end == len(r.buf) {
		grown := make([]byte, 2*len(r.buf))
		r.end = copy(grown, r.buf[:r.end])
		r.buf = grown
	}
	n, err := r.r.Read(r.buf[r.end:])
	r.end += n
	r.n += int64(n)
	if n > 0 {
		return nil // defer the error until the bytes are consumed
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// readLine returns the next CRLF- (or bare LF-) terminated line, excluding
// the terminator, refilling as needed.
func (r *Reader) readLine(what string) ([]byte, error) {
	scanned := 0 // bytes already known not to contain LF
	for {
		if i := indexByte(r.buf[r.off+scanned:r.end], '\n'); i >= 0 {
			nl := r.off + scanned + i
			line := r.buf[r.off:nl]
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			if len(line) > maxInline {
				return nil, protoErr("too big " + what)
			}
			r.off = nl + 1
			return line, nil
		}
		scanned = r.end - r.off
		if scanned > maxInline {
			return nil, protoErr("too big " + what)
		}
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
}

// indexByte is bytes.IndexByte without the package dependency footprint of
// importing bytes solely for it; the compiler lowers this loop well enough
// for header-sized scans.
func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// readExact returns the next n bytes plus their CRLF trailer, refilling as
// needed. The returned slice excludes the trailer and is valid until the
// next refill.
func (r *Reader) readExact(n int) ([]byte, error) {
	for r.end-r.off < n+2 {
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
	b := r.buf[r.off : r.off+n]
	if r.buf[r.off+n] != '\r' || r.buf[r.off+n+1] != '\n' {
		return nil, protoErr("expected CRLF after bulk string")
	}
	r.off += n + 2
	return b, nil
}

// readSpan consumes the next n bytes plus their CRLF trailer and records
// their location relative to mark, surviving later refills within the same
// command.
func (r *Reader) readSpan(n int) (span, error) {
	if _, err := r.readExact(n); err != nil {
		return span{}, err
	}
	return span{off: r.off - (n + 2) - r.mark, n: n}, nil
}

// parseInt parses a decimal integer from a header line without allocating.
func parseInt(b []byte, what string) (int64, error) {
	if len(b) == 0 {
		return 0, protoErr("invalid " + what)
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i++
		if len(b) == 1 {
			return 0, protoErr("invalid " + what)
		}
	}
	var v int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, protoErr("invalid " + what)
		}
		if v > (1<<62)/10 { // overflow guard, far beyond protocol needs
			return 0, protoErr("invalid " + what)
		}
		v = v*10 + int64(d)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// peek returns the next unread byte, refilling as needed, without
// consuming it.
func (r *Reader) peek() (byte, error) {
	for r.off == r.end {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	return r.buf[r.off], nil
}

// ReadCommand parses one client command: a RESP array of bulk strings, or —
// when the first byte is not '*' — an inline command split on spaces and
// tabs. The returned argument slices are views into the internal buffer,
// valid until the next Read* call; an empty inline line yields a zero-length
// command the caller should skip. io.EOF before the first byte of a command
// means a clean close.
func (r *Reader) ReadCommand() ([][]byte, error) {
	r.mark = r.off
	c, err := r.peek()
	if err != nil {
		return nil, err
	}
	if c != '*' {
		return r.readInline()
	}
	r.off++
	header, err := r.readLine("multibulk header")
	if err != nil {
		return nil, err
	}
	n, err := parseInt(header, "multibulk length")
	if err != nil {
		return nil, err
	}
	if n < 0 || n > MaxArgs {
		return nil, protoErr("invalid multibulk length")
	}
	r.spans = r.spans[:0]
	var total int64 // declared payload bytes accumulated across the command
	for i := int64(0); i < n; i++ {
		c, err := r.peek()
		if err != nil {
			return nil, err
		}
		if c != '$' {
			return nil, protoErr("expected '$', got " + strconv.QuoteRune(rune(c)))
		}
		r.off++
		header, err := r.readLine("bulk header")
		if err != nil {
			return nil, err
		}
		ln, err := parseInt(header, "bulk length")
		if err != nil {
			return nil, err
		}
		if ln < 0 || ln > MaxBulk {
			return nil, protoErr("invalid bulk length")
		}
		// Checked against the declared length before the payload is read, so
		// the oversized bulk is rejected without buffering it.
		if total += ln; total > MaxCommand {
			return nil, protoErr("too big multibulk command")
		}
		sp, err := r.readSpan(int(ln))
		if err != nil {
			return nil, err
		}
		r.spans = append(r.spans, sp)
	}
	// The whole command is buffered now; no further refill can shift it, so
	// the spans materialize into stable views.
	r.args = r.args[:0]
	for _, sp := range r.spans {
		r.args = append(r.args, r.buf[r.mark+sp.off:r.mark+sp.off+sp.n])
	}
	return r.args, nil
}

// readInline parses one inline command line into whitespace-separated
// arguments. Quotes are not interpreted (redis-cli always speaks arrays;
// inline exists for netcat-style poking).
func (r *Reader) readInline() ([][]byte, error) {
	line, err := r.readLine("inline request")
	if err != nil {
		return nil, err
	}
	r.args = r.args[:0]
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if i > start {
			if len(r.args) == MaxArgs {
				return nil, protoErr("too many inline arguments")
			}
			r.args = append(r.args, line[start:i])
		}
	}
	return r.args, nil
}

// ReplyKind tags what a ReadReply call decoded.
type ReplyKind byte

// Reply kinds, mirroring the RESP2 first byte.
const (
	KindSimple  ReplyKind = '+'
	KindError   ReplyKind = '-'
	KindInteger ReplyKind = ':'
	KindBulk    ReplyKind = '$'
	KindArray   ReplyKind = '*'
)

// Reply is one decoded server reply. Str is a view into the Reader's buffer
// (valid until the next Read* call); for a null bulk string Null is set and
// Str is nil. For arrays, N gives the element count (-1 for a null array)
// and the caller reads the N nested replies with further ReadReply calls.
type Reply struct {
	Kind ReplyKind
	Str  []byte
	Int  int64
	N    int
	Null bool
}

// ReadReply decodes one reply value. Nested array elements are not
// consumed; see Reply.N.
func (r *Reader) ReadReply() (Reply, error) {
	r.mark = r.off
	c, err := r.peek()
	if err != nil {
		return Reply{}, err
	}
	r.off++
	switch ReplyKind(c) {
	case KindSimple, KindError:
		line, err := r.readLine("simple string")
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: ReplyKind(c), Str: line}, nil
	case KindInteger:
		line, err := r.readLine("integer")
		if err != nil {
			return Reply{}, err
		}
		v, err := parseInt(line, "integer")
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: KindInteger, Int: v}, nil
	case KindBulk:
		line, err := r.readLine("bulk header")
		if err != nil {
			return Reply{}, err
		}
		ln, err := parseInt(line, "bulk length")
		if err != nil {
			return Reply{}, err
		}
		if ln == -1 {
			return Reply{Kind: KindBulk, Null: true}, nil
		}
		if ln < 0 || ln > MaxBulk {
			return Reply{}, protoErr("invalid bulk length")
		}
		b, err := r.readExact(int(ln))
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: KindBulk, Str: b}, nil
	case KindArray:
		line, err := r.readLine("multibulk header")
		if err != nil {
			return Reply{}, err
		}
		n, err := parseInt(line, "multibulk length")
		if err != nil {
			return Reply{}, err
		}
		if n == -1 {
			return Reply{Kind: KindArray, N: -1, Null: true}, nil
		}
		if n < 0 || n > MaxBulk {
			return Reply{}, protoErr("invalid multibulk length")
		}
		return Reply{Kind: KindArray, N: int(n)}, nil
	default:
		return Reply{}, protoErr("unexpected reply byte " + strconv.QuoteRune(rune(c)))
	}
}

// Writer encodes RESP values into a reusable buffer flushed explicitly to
// the underlying writer. Encoding never fails; I/O errors stick to the
// Writer and surface from Flush (and every later Flush), so a reply burst
// can be encoded unconditionally and checked once.
type Writer struct {
	w   io.Writer
	buf []byte
	n   int64 // total bytes flushed
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 4096)}
}

// BytesWritten reports the total bytes flushed to the underlying writer.
func (w *Writer) BytesWritten() int64 { return w.n }

// Simple writes a simple string reply: +s\r\n.
func (w *Writer) Simple(s string) {
	w.buf = append(w.buf, '+')
	w.buf = append(w.buf, s...)
	w.crlf()
}

// Error writes an error reply: -msg\r\n. CR and LF inside msg become spaces
// — error text can carry wrapped message bytes (a peeked protocol byte, an
// OS error string), and a raw line break would split the reply into a
// malformed extra line on the wire.
func (w *Writer) Error(msg string) {
	w.buf = append(w.buf, '-')
	for i := 0; i < len(msg); i++ {
		ch := msg[i]
		if ch == '\r' || ch == '\n' {
			ch = ' '
		}
		w.buf = append(w.buf, ch)
	}
	w.crlf()
}

// Int writes an integer reply: :n\r\n.
func (w *Writer) Int(n int64) {
	w.buf = append(w.buf, ':')
	w.buf = strconv.AppendInt(w.buf, n, 10)
	w.crlf()
}

// Bulk writes a bulk string reply: $len\r\n b \r\n.
func (w *Writer) Bulk(b []byte) {
	w.buf = append(w.buf, '$')
	w.buf = strconv.AppendInt(w.buf, int64(len(b)), 10)
	w.crlf()
	w.buf = append(w.buf, b...)
	w.crlf()
}

// BulkString is Bulk for string payloads.
func (w *Writer) BulkString(s string) {
	w.buf = append(w.buf, '$')
	w.buf = strconv.AppendInt(w.buf, int64(len(s)), 10)
	w.crlf()
	w.buf = append(w.buf, s...)
	w.crlf()
}

// Null writes a null bulk reply: $-1\r\n (RESP2's "no such key").
func (w *Writer) Null() {
	w.buf = append(w.buf, "$-1\r\n"...)
}

// Array writes an array header: *n\r\n. The caller follows with n replies.
func (w *Writer) Array(n int) {
	w.buf = append(w.buf, '*')
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	w.crlf()
}

// Command writes one client command as an array of bulk strings — the
// loadgen/client side of the codec.
func (w *Writer) Command(args ...[]byte) {
	w.Array(len(args))
	for _, a := range args {
		w.Bulk(a)
	}
}

func (w *Writer) crlf() { w.buf = append(w.buf, '\r', '\n') }

// Flush writes the buffered bytes to the underlying writer. The buffer is
// retained, so steady-state flushes allocate nothing.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.w.Write(w.buf)
	w.n += int64(n)
	w.buf = w.buf[:0]
	w.err = err
	return err
}
