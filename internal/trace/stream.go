package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
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
// The serving daemon and the cluster coordinator/worker ingest paths all
// consume this interface, so a new wire codec only has to implement Next.
type RequestReader interface {
	Next() (Request, error)
}

// NewRequestReader returns the streaming decoder matching an HTTP
// Content-Type: the trace-v2 binary reader for IsBinaryMediaType types,
// the CSV reader (the default interchange format) for everything else.
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

	// fields are the fields of the record being decoded. They point into
	// br's buffer, long, unquoted or prefix, and hold until the next record
	// is read. plain reports that the record had no quote in it, so that its
	// fields are the bytes of the line as they stood.
	fields [][]byte
	plain  bool
	// long gathers a line that does not fit br's buffer.
	long []byte
	// unquoted holds, one after another, the fields of a record that has a
	// quote in it, the quoting undone; field i ends at ends[i].
	unquoted []byte
	ends     []int

	cur    Request
	curSet bool
	// prefix is "req_id,class,server,arrival," as the first row of cur
	// spelled it (prefixFields are the four fields in it), or empty when
	// that row held a quote. WriteCSV copies these bytes onto every further
	// row of a request, so a row that starts with them continues cur and
	// needs none of the four split or parsed again.
	prefix       []byte
	prefixFields [4][]byte
	// spans gathers the spans of cur; the request leaves with an exact-sized
	// copy carved from arena.
	spans []Span
	arena SpanArena
	// classes interns class names: a trace has a handful of them, repeated
	// on every request.
	classes map[string]string
}

// NewSpanReader returns a streaming decoder reading from r. The header row
// is consumed and checked on the first call to Next.
func NewSpanReader(r io.Reader) *SpanReader {
	return &SpanReader{br: bufio.NewReaderSize(r, spanReaderBufBytes)}
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

// lengthNL is the length of the line break that ends b.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// readRecord reads the next record into d.fields, skipping blank lines. Its
// error is the one encoding/csv's Reader.Read returns on the same input, the
// column of a *csv.ParseError apart: io.EOF at the end, a syntax error, a
// field count other than the header's, or the error of the underlying
// reader. continues reports that the record opens with d.prefix, so that it
// belongs to d.cur and its first four fields are d.prefixFields.
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
	d.fields = d.fields[:0]
	// One pass finds the commas and whether there is a quote at all.
	start := 0
	if d.curSet && len(d.prefix) > 0 && bytes.HasPrefix(line, d.prefix) {
		// d.prefix has no quote in it, or it would be empty.
		continues = true
		d.fields = append(d.fields, d.prefixFields[:]...)
		start = len(d.prefix)
	}
	d.plain = true
	end := len(line) - lengthNL(line)
scan:
	for i := start; i < end; i++ {
		switch line[i] {
		case ',':
			d.fields = append(d.fields, line[start:i])
			start = i + 1
		case '"':
			d.plain = false
			break scan
		}
	}
	if d.plain {
		d.fields = append(d.fields, line[start:end])
		err = errRead
	} else {
		continues = false
		d.fields = d.fields[:0]
		err = d.splitQuoted(line, errRead)
	}
	if d.numFields == 0 {
		d.numFields = len(d.fields)
	} else if len(d.fields) != d.numFields && err == nil {
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
	d.unquoted, d.ends = d.unquoted[:0], d.ends[:0]
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
			d.ends = append(d.ends, len(d.unquoted))
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
					d.ends = append(d.ends, len(d.unquoted))
					continue parseField
				case lengthNL(line) == len(line): // the record ends
					d.ends = append(d.ends, len(d.unquoted))
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
				d.ends = append(d.ends, len(d.unquoted))
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	// Cut only now: d.unquoted moved while it grew.
	start := 0
	for _, end := range d.ends {
		d.fields = append(d.fields, d.unquoted[start:end])
		start = end
	}
	return err
}

// readHeader consumes and validates the header row. Both the current
// layout and the legacy 12-column layout (without the retries/failover
// annotation columns) are accepted.
func (d *SpanReader) readHeader() error {
	if _, err := d.readRecord(); err != nil {
		return fmt.Errorf("trace: read csv header: %w", err)
	}
	header := d.fields
	switch len(header) {
	case len(csvHeader):
	case numLegacyCSVColumns:
		d.legacy = true
	default:
		return fmt.Errorf("trace: csv header has %d columns, want %d (or the legacy %d)", len(header), len(csvHeader), numLegacyCSVColumns)
	}
	for i, h := range header {
		if string(h) != csvHeader[i] {
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
		row := d.fields
		for i, f := range row {
			if len(f) > maxCSVFieldBytes {
				return d.fail(fmt.Errorf("trace: csv line %d field %d: %d bytes exceeds the %d-byte field limit", d.line, i, len(f), maxCSVFieldBytes))
			}
		}
		// arrivalText: row[3] is the text d.cur.Arrival was parsed from. It
		// is not on a row that continues d.cur by its id alone, whose other
		// request fields go unread.
		arrivalText := continues
		var done Request
		var emit bool
		if !continues {
			id, err := parseCSVInt64(row[0])
			if err != nil {
				return d.fail(fmt.Errorf("trace: csv line %d req_id: %w", d.line, err))
			}
			if !d.curSet || d.cur.ID != id {
				if d.curSet {
					done, emit = d.take(), true
				}
				if err := d.openRequest(id, row); err != nil {
					return d.fail(err)
				}
				arrivalText = true
			}
		}
		if len(row[4]) != 0 { // non-empty subsystem: the row carries a span
			span, err := d.parseSpanColumns(row, arrivalText)
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

// openRequest starts gathering the request whose first row is row.
func (d *SpanReader) openRequest(id int64, row [][]byte) error {
	server, err := parseCSVInt(row[2])
	if err != nil {
		return fmt.Errorf("trace: csv line %d server: %w", d.line, err)
	}
	arrival, err := parseCSVFloat(row[3])
	if err != nil {
		return fmt.Errorf("trace: csv line %d arrival: %w", d.line, err)
	}
	d.cur = Request{ID: id, Class: d.intern(row[1]), Server: server, Arrival: arrival}
	if !d.legacy {
		if len(row[12]) != 0 {
			if d.cur.Retries, err = parseCSVInt(row[12]); err != nil {
				return fmt.Errorf("trace: csv line %d retries: %w", d.line, err)
			}
			if d.cur.Retries < 0 {
				return fmt.Errorf("trace: csv line %d retries: negative count %d", d.line, d.cur.Retries)
			}
			if d.cur.Retries > maxRetries {
				return fmt.Errorf("trace: csv line %d retries: count %d above %d", d.line, d.cur.Retries, maxRetries)
			}
		}
		switch string(row[13]) {
		case "", "0":
		case "1":
			d.cur.FailedOver = true
		default:
			if d.cur.FailedOver, err = strconv.ParseBool(string(row[13])); err != nil {
				return fmt.Errorf("trace: csv line %d failover: %w", d.line, err)
			}
		}
	}
	d.curSet = true
	d.spans = d.spans[:0]
	d.prefix = d.prefix[:0]
	if d.plain {
		for _, f := range row[:4] {
			d.prefix = append(append(d.prefix, f...), ',')
		}
		// Cut only now: d.prefix moved while it grew.
		start := 0
		for i, f := range row[:4] {
			d.prefixFields[i] = d.prefix[start : start+len(f)]
			start += len(f) + 1
		}
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

// parseCSVFloat parses a float column. "0" is most columns of most rows.
func parseCSVFloat(b []byte) (float64, error) {
	if len(b) == 1 && b[0] == '0' {
		return 0, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// parseSpanColumns decodes columns 4..11 of a data row into a Span.
// arrivalText reports that row[3] is the text of d.cur.Arrival: a span that
// starts at the arrival says so in the same characters (WriteCSV copies
// them), and the same characters parse to the same bits.
func (d *SpanReader) parseSpanColumns(row [][]byte, arrivalText bool) (Span, error) {
	var span Span
	sub, err := ParseSubsystem(string(row[4]))
	if err != nil {
		return span, fmt.Errorf("trace: csv line %d: %w", d.line, err)
	}
	op, err := ParseOp(string(row[7]))
	if err != nil {
		return span, fmt.Errorf("trace: csv line %d: %w", d.line, err)
	}
	span.Subsystem = sub
	span.Op = op
	if arrivalText && bytes.Equal(row[5], row[3]) {
		span.Start = d.cur.Arrival
	} else if span.Start, err = parseCSVFloat(row[5]); err != nil {
		return span, fmt.Errorf("trace: csv line %d start: %w", d.line, err)
	}
	if span.Duration, err = parseCSVFloat(row[6]); err != nil {
		return span, fmt.Errorf("trace: csv line %d duration: %w", d.line, err)
	}
	if span.Bytes, err = parseCSVInt64(row[8]); err != nil {
		return span, fmt.Errorf("trace: csv line %d bytes: %w", d.line, err)
	}
	if span.LBN, err = parseCSVInt64(row[9]); err != nil {
		return span, fmt.Errorf("trace: csv line %d lbn: %w", d.line, err)
	}
	if span.Bank, err = parseCSVInt(row[10]); err != nil {
		return span, fmt.Errorf("trace: csv line %d bank: %w", d.line, err)
	}
	if span.Util, err = parseCSVFloat(row[11]); err != nil {
		return span, fmt.Errorf("trace: csv line %d util: %w", d.line, err)
	}
	return span, nil
}
