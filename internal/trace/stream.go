package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
)

// Streaming span decoder: the incremental counterpart of ReadCSV, built
// for long-running ingestion endpoints that must not buffer a whole trace
// before acting on it. SpanReader consumes the WriteCSV span-per-row
// format one request at a time, splitting each line where the read buffer
// holds it and parsing numbers from those bytes, so steady-state decoding
// allocates a chunk of spans now and then and nothing per row. It reads CSV
// as encoding/csv does (quoted fields, CRLF, blank lines, a pinned field
// count) and reports that package's syntax errors as *csv.ParseError; the
// package is imported for those error values only, and oracle_test.go keeps
// the reader that was built on it as the reference.

const (
	// maxCSVFieldBytes bounds a single CSV field; no legitimate column
	// (numbers, subsystem names, class labels) comes anywhere close, so
	// larger fields are treated as malformed input rather than buffered.
	maxCSVFieldBytes = 1 << 16
	// maxSpansPerRequest bounds the spans folded into one request, so a
	// stream repeating one req_id forever cannot grow a request without
	// bound.
	maxSpansPerRequest = 1 << 20
	// spanReaderBufBytes is the read buffer of a SpanReader. A longer line
	// is gathered beside it.
	spanReaderBufBytes = 32 << 10
	// maxInternedClasses bounds a SpanReader's class table against a stream
	// that invents a class per request; names past it are allocated one by
	// one.
	maxInternedClasses = 1024
)

// RequestReader is the streaming decode contract shared by the CSV
// SpanReader and the trace-v2 BinarySpanReader: one complete request per
// Next, io.EOF at the clean end of the stream, any other error sticky.
// The ingest handlers of the daemon and of the cluster worker consume this
// interface, so a new wire codec only has to implement Next.
type RequestReader interface {
	Next() (Request, error)
}

// NewRequestReader returns a fresh streaming decoder matching an HTTP
// Content-Type: the trace-v2 binary reader for IsBinaryMediaType types,
// the CSV reader (the default interchange format) for everything else. Its
// requests keep their spans for good; an ingest handler, which keeps none,
// re-arms a pooled reader with Reuse instead.
func NewRequestReader(r io.Reader, contentType string) RequestReader {
	if IsBinaryMediaType(contentType) {
		return NewBinarySpanReader(r)
	}
	return NewSpanReader(r)
}

// IsBinaryMediaType reports whether a Content-Type header value names the
// trace-v2 binary codec (media-type parameters ignored).
func IsBinaryMediaType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == ContentTypeV2
}

// SpanReader incrementally decodes the flat span-per-row CSV trace format.
// Rows sharing a req_id are folded into one Request (rows must be grouped
// by request, as WriteCSV emits them); each completed request is handed to
// the caller as soon as its last row has been read. A SpanReader never
// panics on malformed input and spawns no goroutines; every defect is
// reported as an error from Next, after which the reader is exhausted.
type SpanReader struct {
	br *bufio.Reader
	// line counts records, the header being line 1: a skipped blank line is
	// none and a quoted field that spans lines is still one. It numbers the
	// errors worded here. physLine counts lines of input, which is what the
	// positions in a csv.ParseError are.
	line     int
	physLine int
	started  bool
	// legacy is true when the stream uses the pre-fault 12-column header
	// (no retries/failover annotations); such requests decode with zero
	// annotations.
	legacy bool
	// numFields is the field count of the header row, which every later
	// record has to repeat.
	numFields int
	err       error

	// rec and cuts are the record being decoded: field i is
	// rec[cuts[i]+1:cuts[i+1]], cuts[0] being -1. rec is the line as read,
	// in br's buffer or long, and cuts are its commas and its end; or, for a
	// record with a quote in it, rec is unquoted. It holds until the next
	// record is read. Offsets rather than slices: splitting a record stores
	// no pointer. plain reports that the record had no quote in it, so that
	// its fields are the bytes of the line as they stood.
	rec   []byte
	cuts  []int
	plain bool
	// long gathers a line that does not fit br's buffer.
	long []byte
	// unquoted holds the fields of a record that has a quote in it, the
	// quoting undone, each followed by one separator byte.
	unquoted []byte

	cur    Request
	curSet bool
	// prefix is "req_id,class,server,arrival," as the first row of cur
	// spelled it (prefixCuts are the cuts of the four fields in it), or
	// empty when that row held a quote. WriteCSV copies these bytes onto
	// every further row of a request, so a row that starts with them
	// continues cur and needs none of the four split or parsed again.
	prefix     []byte
	prefixCuts [5]int
	// spans gathers the spans of cur; the request leaves with an exact-sized
	// copy carved from arena.
	spans []Span
	arena SpanArena
	// classes interns class names: a trace has a handful of them, repeated
	// on every request. classBytes is the length of the names in it.
	classes    map[string]string
	classBytes int
}

// Past these sizes Reuse drops a buffer rather than keep it: a writer's
// stream never needs more, and one outsized stream must not pin its buffers.
const (
	maxKeptLineBytes  = spanReaderBufBytes // long, unquoted
	maxKeptCuts       = 64                 // a record's commas and its end
	maxKeptSpans      = 1 << 10            // one request's spans
	maxKeptClassBytes = 4 << 10            // the interned class names
)

// NewSpanReader returns a streaming decoder reading from r. The header row
// is consumed and checked on the first call to Next.
func NewSpanReader(r io.Reader) *SpanReader {
	return &SpanReader{br: bufio.NewReaderSize(r, spanReaderBufBytes)}
}

// Reuse re-arms the reader on a new stream and keeps its read buffer, its
// record buffers, its class table and its span arena, so a reader that
// decodes body after body settles to allocating no span. The stream decodes
// to the same requests and the same error as with a fresh reader. Every
// request handed out before the call dies with it: its spans are overwritten
// by the next stream. Only an owner that has let go of all of them may call
// Reuse; a reader whose requests are kept needs no Reuse.
func (d *SpanReader) Reuse(r io.Reader) {
	d.br.Reset(r)
	kept := SpanReader{br: d.br, arena: d.arena, classes: d.classes, classBytes: d.classBytes}
	if cap(d.long) <= maxKeptLineBytes {
		kept.long = d.long[:0]
	}
	if cap(d.unquoted) <= maxKeptLineBytes {
		kept.unquoted = d.unquoted[:0]
	}
	if cap(d.cuts) <= maxKeptCuts {
		kept.cuts = d.cuts[:0]
	}
	if cap(d.spans) <= maxKeptSpans {
		kept.spans = d.spans[:0]
	}
	if cap(d.prefix) <= maxKeptLineBytes {
		kept.prefix = d.prefix[:0]
	}
	if d.classBytes > maxKeptClassBytes {
		kept.classes, kept.classBytes = nil, 0
	}
	*d = kept
	d.arena.Reset()
}

// fail records the first error and makes it sticky.
func (d *SpanReader) fail(err error) (Request, error) {
	d.err = err
	d.curSet = false
	return Request{}, err
}

// readLine reads the next line as encoding/csv's Reader does: the line break
// is kept, a CRLF becomes LF, a last line without a line break comes with a
// nil error and without its trailing CR, and io.EOF comes only with no
// bytes. The result holds until the next call.
func (d *SpanReader) readLine() ([]byte, error) {
	line, err := d.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		d.long = append(d.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = d.br.ReadSlice('\n')
			d.long = append(d.long, line...)
		}
		line = d.long
	}
	if n := len(line); n > 0 && err == io.EOF {
		err = nil
		if line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	d.physLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// byteMask has the top bit of byte i set where byte i of w is c, and no
// other bit: a byte of w^c below 0x80 gains its top bit from the add only
// when it is not zero, and no add carries out of its byte.
func byteMask(w uint64, c byte) uint64 {
	const lo7, hi = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	x := w ^ uint64(c)*0x0101010101010101
	return ^(x&lo7 + lo7 | x) & hi
}

// lengthNL is the length of the line break that ends b.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// field is field i of the record read last.
func (d *SpanReader) field(i int) []byte {
	return d.rec[d.cuts[i]+1 : d.cuts[i+1]]
}

// fieldCount is the number of fields of the record read last.
func (d *SpanReader) fieldCount() int {
	return len(d.cuts) - 1
}

// readRecord reads the next record into d.rec, skipping blank lines. Its
// error is the one encoding/csv's Reader.Read returns on the same input, the
// column of a *csv.ParseError apart: io.EOF at the end, a syntax error, a
// field count other than the header's, or the error of the underlying
// reader. continues reports that the record opens with d.prefix, so that it
// belongs to d.cur and its first four fields are the ones of d.prefix.
func (d *SpanReader) readRecord() (continues bool, err error) {
	var line []byte
	var errRead error
	for {
		line, errRead = d.readLine()
		if errRead != nil || len(line) != lengthNL(line) {
			break
		}
	}
	if errRead == io.EOF {
		return false, io.EOF
	}
	recLine := d.physLine
	// One pass finds the commas and whether there is a quote at all.
	cuts := append(d.cuts[:0], -1)
	i := 0
	if d.curSet && len(d.prefix) > 0 && bytes.HasPrefix(line, d.prefix) {
		// d.prefix has no quote in it, or it would be empty.
		continues = true
		cuts = append(cuts[:0], d.prefixCuts[:]...)
		i = len(d.prefix)
	}
	plain := true
	end := len(line) - lengthNL(line)
	// Eight bytes a step: the commas of a word are the set bits of its
	// mask.
	for ; end-i >= 8; i += 8 {
		w := binary.LittleEndian.Uint64(line[i:])
		if byteMask(w, '"') != 0 {
			plain = false
			break
		}
		for m := byteMask(w, ','); m != 0; m &= m - 1 {
			cuts = append(cuts, i+bits.TrailingZeros64(m)>>3)
		}
	}
scan:
	for ; plain && i < end; i++ {
		switch line[i] {
		case ',':
			cuts = append(cuts, i)
		case '"':
			plain = false
			break scan
		}
	}
	d.plain = plain
	if plain {
		d.rec, d.cuts = line, append(cuts, end)
		err = errRead
	} else {
		continues = false
		d.cuts = append(cuts[:0], -1)
		err = d.splitQuoted(line, errRead)
	}
	if d.numFields == 0 {
		d.numFields = d.fieldCount()
	} else if d.fieldCount() != d.numFields && err == nil {
		err = &csv.ParseError{StartLine: recLine, Line: recLine, Column: 1, Err: csv.ErrFieldCount}
	}
	return continues, err
}

// splitQuoted is readRecord for a record whose first line has a quote in
// it: the fields are copied to d.unquoted with the quoting undone, a quoted
// field may run over further lines, and a quote out of place is
// csv.ErrBareQuote or csv.ErrQuote. This is the loop of encoding/csv's
// readRecord with that Reader's options at their defaults.
func (d *SpanReader) splitQuoted(line []byte, errRead error) error {
	recLine := d.physLine
	d.unquoted = d.unquoted[:0]
	var err error
	// line[0] is byte col of line posLine, both counted from zero.
	posLine, col := d.physLine, 0
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			// A field without quotes around it.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: recLine, Line: d.physLine, Column: col + j + 1, Err: csv.ErrBareQuote}
				break parseField
			}
			d.unquoted = append(d.unquoted, field...)
			d.endField()
			if i < 0 {
				break parseField
			}
			line = line[i+1:]
			col += i + 1
			continue parseField
		}
		line = line[1:]
		col++
		for {
			i := bytes.IndexByte(line, '"')
			if i >= 0 {
				d.unquoted = append(d.unquoted, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"': // a doubled quote
					d.unquoted = append(d.unquoted, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',': // the field ends
					line = line[1:]
					col++
					d.endField()
					continue parseField
				case lengthNL(line) == len(line): // the record ends
					d.endField()
					break parseField
				default:
					err = &csv.ParseError{StartLine: recLine, Line: d.physLine, Column: col, Err: csv.ErrQuote}
					break parseField
				}
			} else if len(line) > 0 {
				// The field runs on into the next line.
				d.unquoted = append(d.unquoted, line...)
				if errRead != nil {
					break parseField
				}
				col += len(line)
				line, errRead = d.readLine()
				if len(line) > 0 {
					posLine++
					col = 0
				}
				if errRead == io.EOF {
					errRead = nil
				}
			} else {
				// The input ended inside the quotes.
				if errRead == nil {
					err = &csv.ParseError{StartLine: recLine, Line: posLine, Column: col + 1, Err: csv.ErrQuote}
					break parseField
				}
				d.endField()
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	d.rec = d.unquoted
	return err
}

// endField ends the field of a quoted record at the end of d.unquoted.
func (d *SpanReader) endField() {
	d.cuts = append(d.cuts, len(d.unquoted))
	d.unquoted = append(d.unquoted, ',')
}

// readHeader consumes and validates the header row. Both the current
// layout and the legacy 12-column layout (without the retries/failover
// annotation columns) are accepted.
func (d *SpanReader) readHeader() error {
	if _, err := d.readRecord(); err != nil {
		return fmt.Errorf("trace: read csv header: %w", err)
	}
	switch d.fieldCount() {
	case len(csvHeader):
	case numLegacyCSVColumns:
		d.legacy = true
	default:
		return fmt.Errorf("trace: csv header has %d columns, want %d (or the legacy %d)", d.fieldCount(), len(csvHeader), numLegacyCSVColumns)
	}
	for i := range d.fieldCount() {
		if h := d.field(i); string(h) != csvHeader[i] {
			return fmt.Errorf("trace: csv column %d is %q, want %q", i, h, csvHeader[i])
		}
	}
	d.line = 1
	d.started = true
	// readRecord pins the field count to the first row; with two accepted
	// layouts that already does the per-row column check for us.
	return nil
}

// take hands out the request gathered in d.cur, its spans in a slice of
// their exact number carved from the arena.
func (d *SpanReader) take() Request {
	out := d.cur
	out.Spans = append(d.arena.Take(len(d.spans)), d.spans...)
	d.cur, d.curSet = Request{}, false
	return out
}

// intern returns the class name spelled by b, the same string for the same
// bytes as long as the table has room.
func (d *SpanReader) intern(b []byte) string {
	if s, ok := d.classes[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.classes) < maxInternedClasses {
		if d.classes == nil {
			d.classes = make(map[string]string)
		}
		d.classes[s] = s
		d.classBytes += len(s)
	}
	return s
}

// Next returns the next complete request, or io.EOF when the stream ends
// cleanly. Any other error is sticky: the reader returns it on every
// subsequent call.
func (d *SpanReader) Next() (Request, error) {
	if d.err != nil {
		return Request{}, d.err
	}
	if !d.started {
		if err := d.readHeader(); err != nil {
			return d.fail(err)
		}
	}
	for {
		continues, err := d.readRecord()
		if err == io.EOF {
			if d.curSet {
				d.err = io.EOF
				return d.take(), nil
			}
			return d.fail(io.EOF)
		}
		d.line++
		if err != nil {
			return d.fail(fmt.Errorf("trace: read csv line %d: %w", d.line, err))
		}
		if len(d.rec) > maxCSVFieldBytes { // else no field can be
			for i := range d.fieldCount() {
				if n := d.cuts[i+1] - d.cuts[i] - 1; n > maxCSVFieldBytes {
					return d.fail(fmt.Errorf("trace: csv line %d field %d: %d bytes exceeds the %d-byte field limit", d.line, i, n, maxCSVFieldBytes))
				}
			}
		}
		// arrivalText: field 3 is the text d.cur.Arrival was parsed from. It
		// is not on a row that continues d.cur by its id alone, whose other
		// request fields go unread.
		arrivalText := continues
		var done Request
		var emit bool
		if !continues {
			id, err := parseCSVInt64(d.field(0))
			if err != nil {
				return d.fail(fmt.Errorf("trace: csv line %d req_id: %w", d.line, err))
			}
			if !d.curSet || d.cur.ID != id {
				if d.curSet {
					done, emit = d.take(), true
				}
				if err := d.openRequest(id); err != nil {
					return d.fail(err)
				}
				arrivalText = true
			}
		}
		if len(d.field(4)) != 0 { // non-empty subsystem: the row carries a span
			span, err := d.parseSpanColumns(arrivalText)
			if err != nil {
				return d.fail(err)
			}
			if len(d.spans) >= maxSpansPerRequest {
				return d.fail(fmt.Errorf("trace: csv line %d: request %d exceeds %d spans", d.line, d.cur.ID, maxSpansPerRequest))
			}
			d.spans = append(d.spans, span)
		}
		if emit {
			return done, nil
		}
	}
}

// openRequest starts gathering the request whose first row is the record
// read last.
func (d *SpanReader) openRequest(id int64) error {
	server, err := parseCSVInt(d.field(2))
	if err != nil {
		return fmt.Errorf("trace: csv line %d server: %w", d.line, err)
	}
	arrival, err := parseCSVFloat(d.field(3))
	if err != nil {
		return fmt.Errorf("trace: csv line %d arrival: %w", d.line, err)
	}
	d.cur = Request{ID: id, Class: d.intern(d.field(1)), Server: server, Arrival: arrival}
	if !d.legacy {
		if f := d.field(12); len(f) != 0 {
			if d.cur.Retries, err = parseCSVInt(f); err != nil {
				return fmt.Errorf("trace: csv line %d retries: %w", d.line, err)
			}
			if d.cur.Retries < 0 {
				return fmt.Errorf("trace: csv line %d retries: negative count %d", d.line, d.cur.Retries)
			}
			if d.cur.Retries > maxRetries {
				return fmt.Errorf("trace: csv line %d retries: count %d above %d", d.line, d.cur.Retries, maxRetries)
			}
		}
		switch f := d.field(13); string(f) {
		case "", "0":
		case "1":
			d.cur.FailedOver = true
		default:
			if d.cur.FailedOver, err = strconv.ParseBool(string(f)); err != nil {
				return fmt.Errorf("trace: csv line %d failover: %w", d.line, err)
			}
		}
	}
	d.curSet = true
	d.spans = d.spans[:0]
	d.prefix = d.prefix[:0]
	if d.plain {
		// The line itself, up to the comma after field 3: the four fields
		// sit at the same offsets in every row that starts with it.
		d.prefix = append(d.prefix, d.rec[:d.cuts[4]+1]...)
		copy(d.prefixCuts[:], d.cuts)
	}
	return nil
}

// plainDecimal reads a decimal integer, optionally negative, short enough
// not to overflow. It reports false for anything else (a plus sign, a longer
// number, a defect), which is left to strconv for its verdict and wording.
func plainDecimal(b []byte) (int64, bool) {
	digits := b
	if len(b) > 0 && b[0] == '-' {
		digits = b[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if len(digits) != len(b) {
		v = -v
	}
	return v, true
}

// parseCSVInt64 is strconv.ParseInt(string(b), 10, 64).
func parseCSVInt64(b []byte) (int64, error) {
	if v, ok := plainDecimal(b); ok {
		return v, nil
	}
	return strconv.ParseInt(string(b), 10, 64)
}

// parseCSVInt is strconv.Atoi(string(b)).
func parseCSVInt(b []byte) (int, error) {
	if v, ok := plainDecimal(b); ok && int64(int(v)) == v {
		return int(v), nil
	}
	return strconv.Atoi(string(b))
}

// parseSpanColumns decodes columns 4..11 of the record read last into a
// Span. arrivalText reports that field 3 is the text of d.cur.Arrival: a
// span that starts at the arrival says so in the same characters (WriteCSV
// copies them), and the same characters parse to the same bits.
func (d *SpanReader) parseSpanColumns(arrivalText bool) (Span, error) {
	var span Span
	sub, err := ParseSubsystem(string(d.field(4)))
	if err != nil {
		return span, fmt.Errorf("trace: csv line %d: %w", d.line, err)
	}
	op, err := ParseOp(string(d.field(7)))
	if err != nil {
		return span, fmt.Errorf("trace: csv line %d: %w", d.line, err)
	}
	span.Subsystem = sub
	span.Op = op
	if start := d.field(5); arrivalText && bytes.Equal(start, d.field(3)) {
		span.Start = d.cur.Arrival
	} else if span.Start, err = parseCSVFloat(start); err != nil {
		return span, fmt.Errorf("trace: csv line %d start: %w", d.line, err)
	}
	if span.Duration, err = parseCSVFloat(d.field(6)); err != nil {
		return span, fmt.Errorf("trace: csv line %d duration: %w", d.line, err)
	}
	if span.Bytes, err = parseCSVInt64(d.field(8)); err != nil {
		return span, fmt.Errorf("trace: csv line %d bytes: %w", d.line, err)
	}
	if span.LBN, err = parseCSVInt64(d.field(9)); err != nil {
		return span, fmt.Errorf("trace: csv line %d lbn: %w", d.line, err)
	}
	if span.Bank, err = parseCSVInt(d.field(10)); err != nil {
		return span, fmt.Errorf("trace: csv line %d bank: %w", d.line, err)
	}
	if span.Util, err = parseCSVFloat(d.field(11)); err != nil {
		return span, fmt.Errorf("trace: csv line %d util: %w", d.line, err)
	}
	return span, nil
}
