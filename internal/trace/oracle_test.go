package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// The encoding/csv and encoding/json writers WriteCSV and WriteJSON were
// built on before the append encoders replaced them. They stay, test-only,
// as the byte-for-byte reference the append encoders are held to.

func oracleWriteCSV(w io.Writer, t *Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write csv header: %w", err)
	}
	fl := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	row := make([]string, len(csvHeader))
	for _, r := range t.Requests {
		row[0] = strconv.FormatInt(r.ID, 10)
		row[1] = r.Class
		row[2] = strconv.Itoa(r.Server)
		row[3] = fl(r.Arrival)
		row[12] = strconv.Itoa(r.Retries)
		if r.FailedOver {
			row[13] = "1"
		} else {
			row[13] = "0"
		}
		if len(r.Spans) == 0 {
			for i := 4; i < numLegacyCSVColumns; i++ {
				row[i] = ""
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: write csv row: %w", err)
			}
			continue
		}
		for _, s := range r.Spans {
			row[4] = s.Subsystem.String()
			row[5] = fl(s.Start)
			row[6] = fl(s.Duration)
			row[7] = s.Op.String()
			row[8] = strconv.FormatInt(s.Bytes, 10)
			row[9] = strconv.FormatInt(s.LBN, 10)
			row[10] = strconv.Itoa(s.Bank)
			row[11] = fl(s.Util)
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func oracleWriteJSON(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("trace: encode json: %w", err)
	}
	return nil
}

// oracleCSV and oracleJSON run the reference writers into memory.
func oracleCSV(tb testing.TB, tr *Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := oracleWriteCSV(&buf, tr); err != nil {
		tb.Fatalf("oracle csv: %v", err)
	}
	return buf.Bytes()
}

func oracleJSON(tr *Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := oracleWriteJSON(&buf, tr)
	return buf.Bytes(), err
}

// checkCSVMatchesOracle holds AppendCSV and WriteCSV to the encoding/csv
// writer, byte for byte, and AppendCSV to leaving dst's prefix alone.
func checkCSVMatchesOracle(t *testing.T, tr *Trace) {
	t.Helper()
	want := oracleCSV(t, tr)
	if got := AppendCSV(nil, tr); !bytes.Equal(got, want) {
		t.Fatalf("AppendCSV differs from encoding/csv\n got: %q\nwant: %q", got, want)
	}
	if got := AppendCSV([]byte("prefix"), tr); !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendCSV onto a prefix differs from encoding/csv\n got: %q\nwant: prefix+%q", got, want)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteCSV differs from encoding/csv (err %v)\n got: %q\nwant: %q", err, buf.Bytes(), want)
	}
}

// checkJSONMatchesOracle holds AppendJSON and WriteJSON to json.Encoder:
// the same bytes, and an error with no output exactly when it has one.
func checkJSONMatchesOracle(t *testing.T, tr *Trace) {
	t.Helper()
	want, wantErr := oracleJSON(tr)
	got, err := AppendJSON([]byte("prefix"), tr)
	var buf bytes.Buffer
	werr := WriteJSON(&buf, tr)
	if wantErr != nil {
		if err == nil || werr == nil {
			t.Fatalf("encoding/json refuses the trace (%v), AppendJSON err = %v, WriteJSON err = %v", wantErr, err, werr)
		}
		if string(got) != "prefix" || buf.Len() != 0 {
			t.Fatalf("a refused trace produced output: AppendJSON %q, WriteJSON %q", got, buf.Bytes())
		}
		return
	}
	if err != nil || werr != nil {
		t.Fatalf("encoding/json accepts the trace, AppendJSON err = %v, WriteJSON err = %v", err, werr)
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON differs from encoding/json\n got: %q\nwant: prefix+%q", got, want)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteJSON differs from encoding/json\n got: %q\nwant: %q", buf.Bytes(), want)
	}
}

// oracleClasses are class names on either side of every quoting and
// escaping rule of the two text formats.
var oracleClasses = []string{
	"", "read64K", "chat/history", "a,b", `say "hi"`, `"`, "line\nbreak", "cr\rhere", "crlf\r\n",
	" leading space", "trailing space ", "\tleading tab", "\u00a0leading nbsp", "\u2028leading ls", "\u0085leading nel", "x\u2028y", "x\u2029y",
	`\.`, `\.x`, `back\slash`, "<&>", "del\x7f", "nul\x00", "bell\a\b\f", "café", "\xff\xfe", "ok\xc3", "日本語",
}

// oracleFloats sit on the format switches of 'g' and of encoding/json.
var oracleFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-9, 1e-7, 9.999999e-7, 1e-6, 1e-5, 123456789.125, 1e20, 9.999999999999999e20, 1e21, 1e22, 1e100,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// perturb plants class and v across the trace so that one fuzz input
// reaches every formatted column.
func perturb(tr *Trace, class string, v float64) {
	for i := range tr.Requests {
		r := &tr.Requests[i]
		switch i % 3 {
		case 0:
			r.Class = class
		case 1:
			r.Arrival = v
		}
		for j := range r.Spans {
			switch (i + j) % 4 {
			case 0:
				r.Spans[j].Start = v
			case 1:
				r.Spans[j].Duration = v
			case 2:
				r.Spans[j].Util = v
			}
		}
	}
}

// oracleTrace has one of everything the encoders branch on: a quoted class,
// a request without spans (nil and empty), retries and failover, negative
// and out-of-range enums, and a duration JSON prints as 1e-9.
func oracleTrace() *Trace {
	tr := sampleTrace()
	tr.Requests = append(tr.Requests,
		Request{ID: -4, Class: `a,"b"`, Server: -1, Arrival: 1e-9, Retries: 1, Spans: []Span{}},
		Request{ID: math.MaxInt64, Class: " x", Server: 3, Arrival: 1e21, FailedOver: true, Spans: []Span{
			{Subsystem: Subsystem(7), Start: 1e21, Duration: 1e-9, Op: Op(-2), Bytes: math.MinInt64, LBN: -1, Bank: -3, Util: 1e-7},
		}},
	)
	return tr
}

func TestAppendMatchesOracle(t *testing.T) {
	traces := map[string]*Trace{
		"nil requests":   {},
		"empty requests": {Requests: []Request{}},
		"sample":         sampleTrace(),
		"oracle":         oracleTrace(),
		"bench":          benchCodecTrace(),
	}
	for _, name := range presetGoldens(t) {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		traces[filepath.Base(name)] = tr
		// The goldens were written by the encoding/csv writer; re-encoding
		// what they decode to must give them back.
		if got := AppendCSV(nil, tr); !bytes.Equal(got, data) {
			t.Errorf("%s: AppendCSV(ReadCSV(golden)) != golden", name)
		}
	}
	for name, tr := range traces {
		t.Run(name, func(t *testing.T) {
			checkCSVMatchesOracle(t, tr)
			checkJSONMatchesOracle(t, tr)
		})
	}
	for _, class := range oracleClasses {
		for _, v := range oracleFloats {
			tr := oracleTrace()
			perturb(tr, class, v)
			checkCSVMatchesOracle(t, tr)
			checkJSONMatchesOracle(t, tr)
		}
	}
}

// presetGoldens lists the six preset traces pinned by internal/spec.
func presetGoldens(tb testing.TB) []string {
	tb.Helper()
	names, err := filepath.Glob("../spec/testdata/*.golden.csv")
	if err != nil || len(names) != 6 {
		tb.Fatalf("preset goldens: got %d (%v), want 6", len(names), err)
	}
	return names
}

// addOracleSeeds seeds a fuzz target with encode(trace) for the six preset
// goldens and for the hand-built trace under every class and float above.
func addOracleSeeds(f *testing.F, encode func(*Trace) []byte) {
	for _, name := range presetGoldens(f) {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encode(tr), "", uint64(0))
	}
	base := encode(oracleTrace())
	for i, class := range oracleClasses {
		f.Add(base, class, math.Float64bits(oracleFloats[i%len(oracleFloats)]))
	}
	for _, v := range oracleFloats {
		f.Add(base, "read64K", math.Float64bits(v))
	}
}

// FuzzAppendCSVMatchesOracle: whatever trace the CSV reader accepts, with a
// fuzzed class and float planted in it, encodes to the bytes encoding/csv
// writes.
func FuzzAppendCSVMatchesOracle(f *testing.F) {
	addOracleSeeds(f, func(tr *Trace) []byte { return oracleCSV(f, tr) })
	f.Fuzz(func(t *testing.T, input []byte, class string, bits uint64) {
		tr, err := ReadCSV(bytes.NewReader(input))
		if err != nil {
			tr = oracleTrace()
		}
		perturb(tr, class, math.Float64frombits(bits))
		checkCSVMatchesOracle(t, tr)
	})
}

// FuzzAppendJSONMatchesOracle is the JSON twin; decoding JSON also reaches
// the shapes CSV cannot carry (empty non-nil slices, any enum value).
func FuzzAppendJSONMatchesOracle(f *testing.F) {
	addOracleSeeds(f, func(tr *Trace) []byte {
		out, err := oracleJSON(tr)
		if err != nil {
			f.Fatal(err)
		}
		return out
	})
	f.Fuzz(func(t *testing.T, input []byte, class string, bits uint64) {
		tr, err := ReadJSON(bytes.NewReader(input))
		if err != nil {
			tr = oracleTrace()
		}
		perturb(tr, class, math.Float64frombits(bits))
		checkJSONMatchesOracle(t, tr)
	})
}

// countingWriter records how the bytes arrived.
type countingWriter struct {
	writes, largest int
	total           int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.largest = max(c.largest, len(p))
	c.total += int64(len(p))
	return len(p), nil
}

// TestWriteStreams: a long trace reaches the writer in bounded chunks, not
// as one buffer the size of the output.
func TestWriteStreams(t *testing.T) {
	tr := &Trace{Requests: make([]Request, 200_000)}
	for i := range tr.Requests {
		tr.Requests[i] = Request{ID: int64(i), Class: "read64K", Arrival: float64(i) / 128,
			Spans: []Span{{Subsystem: Storage, Start: float64(i) / 128, Duration: 0.0078125, Op: OpRead, Bytes: 65536, LBN: int64(i)}}}
	}
	for name, write := range map[string]func(io.Writer, *Trace) error{"csv": WriteCSV, "json": WriteJSON} {
		var cw countingWriter
		if err := write(&cw, tr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cw.writes < 2 || cw.largest > 128<<10 {
			t.Errorf("%s: %d bytes arrived in %d writes, the largest %d bytes; want several, none above 128 KiB",
				name, cw.total, cw.writes, cw.largest)
		}
	}
}

// failingWriter fails every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestWriteReportsWriterError(t *testing.T) {
	if err := WriteCSV(failingWriter{}, sampleTrace()); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("WriteCSV err = %v, want the writer's", err)
	}
	if err := WriteJSON(failingWriter{}, sampleTrace()); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("WriteJSON err = %v, want the writer's", err)
	}
}

// oracleSpanReader is the encoding/csv-based SpanReader as it stood before
// the byte-level reader replaced its inside, moved here verbatim (names
// apart). It stays, test-only, as the reference the byte-level reader is
// held to by checkSpanReaderMatchesOracle.
//
// It incrementally decodes the flat span-per-row CSV trace format.
// Rows sharing a req_id are folded into one Request (rows must be grouped
// by request, as WriteCSV emits them); each completed request is handed to
// the caller as soon as its last row has been read. It never
// panics on malformed input and spawns no goroutines; every defect is
// reported as an error from Next, after which the reader is exhausted.
type oracleSpanReader struct {
	cr      *csv.Reader
	line    int
	started bool
	// legacy is true when the stream uses the pre-fault 12-column header
	// (no retries/failover annotations); such requests decode with zero
	// annotations.
	legacy bool
	cur    Request
	curSet bool
	err    error
}

// newOracleSpanReader returns a streaming decoder reading from r. The header row
// is consumed and checked on the first call to Next.
func newOracleSpanReader(r io.Reader) *oracleSpanReader {
	cr := csv.NewReader(r)
	// Reuse the record slice across rows. Safe even though the class field
	// is retained: encoding/csv backs each record's fields with a fresh
	// string per row, ReuseRecord only recycles the []string header.
	cr.ReuseRecord = true
	return &oracleSpanReader{cr: cr}
}

// fail records the first error and makes it sticky.
func (d *oracleSpanReader) fail(err error) (Request, error) {
	d.err = err
	d.curSet = false
	return Request{}, err
}

// readHeader consumes and validates the header row. Both the current
// layout and the legacy 12-column layout (without the retries/failover
// annotation columns) are accepted.
func (d *oracleSpanReader) readHeader() error {
	header, err := d.cr.Read()
	if err != nil {
		return fmt.Errorf("trace: read csv header: %w", err)
	}
	switch len(header) {
	case len(csvHeader):
	case numLegacyCSVColumns:
		d.legacy = true
	default:
		return fmt.Errorf("trace: csv header has %d columns, want %d (or the legacy %d)", len(header), len(csvHeader), numLegacyCSVColumns)
	}
	for i, h := range header {
		if h != csvHeader[i] {
			return fmt.Errorf("trace: csv column %d is %q, want %q", i, h, csvHeader[i])
		}
	}
	d.line = 1
	d.started = true
	// csv.Reader pins the field count to the first row; with two accepted
	// layouts that already does the per-row column check for us.
	return nil
}

// Next returns the next complete request, or io.EOF when the stream ends
// cleanly. Any other error is sticky: the reader returns it on every
// subsequent call.
func (d *oracleSpanReader) Next() (Request, error) {
	if d.err != nil {
		return Request{}, d.err
	}
	if !d.started {
		if err := d.readHeader(); err != nil {
			return d.fail(err)
		}
	}
	for {
		row, err := d.cr.Read()
		if err == io.EOF {
			if d.curSet {
				out := d.cur
				d.cur, d.curSet = Request{}, false
				d.err = io.EOF
				return out, nil
			}
			return d.fail(io.EOF)
		}
		d.line++
		if err != nil {
			return d.fail(fmt.Errorf("trace: read csv line %d: %w", d.line, err))
		}
		for i, f := range row {
			if len(f) > maxCSVFieldBytes {
				return d.fail(fmt.Errorf("trace: csv line %d field %d: %d bytes exceeds the %d-byte field limit", d.line, i, len(f), maxCSVFieldBytes))
			}
		}
		id, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return d.fail(fmt.Errorf("trace: csv line %d req_id: %w", d.line, err))
		}
		var done Request
		var emit bool
		if !d.curSet || d.cur.ID != id {
			if d.curSet {
				done, emit = d.cur, true
			}
			server, err := strconv.Atoi(row[2])
			if err != nil {
				return d.fail(fmt.Errorf("trace: csv line %d server: %w", d.line, err))
			}
			arrival, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				return d.fail(fmt.Errorf("trace: csv line %d arrival: %w", d.line, err))
			}
			d.cur = Request{ID: id, Class: row[1], Server: server, Arrival: arrival}
			if !d.legacy {
				if row[12] != "" {
					if d.cur.Retries, err = strconv.Atoi(row[12]); err != nil {
						return d.fail(fmt.Errorf("trace: csv line %d retries: %w", d.line, err))
					}
					if d.cur.Retries < 0 {
						return d.fail(fmt.Errorf("trace: csv line %d retries: negative count %d", d.line, d.cur.Retries))
					}
				}
				if row[13] != "" && row[13] != "0" {
					if d.cur.FailedOver, err = strconv.ParseBool(row[13]); err != nil {
						return d.fail(fmt.Errorf("trace: csv line %d failover: %w", d.line, err))
					}
				}
			}
			d.curSet = true
		}
		if row[4] != "" { // non-empty subsystem: the row carries a span
			span, err := oracleParseSpanColumns(row, d.line)
			if err != nil {
				return d.fail(err)
			}
			if len(d.cur.Spans) >= maxSpansPerRequest {
				return d.fail(fmt.Errorf("trace: csv line %d: request %d exceeds %d spans", d.line, id, maxSpansPerRequest))
			}
			d.cur.Spans = append(d.cur.Spans, span)
		}
		if emit {
			return done, nil
		}
	}
}

// oracleParseSpanColumns decodes columns 4..11 of a data row into a Span.
func oracleParseSpanColumns(row []string, line int) (Span, error) {
	var span Span
	sub, err := ParseSubsystem(row[4])
	if err != nil {
		return span, fmt.Errorf("trace: csv line %d: %w", line, err)
	}
	op, err := ParseOp(row[7])
	if err != nil {
		return span, fmt.Errorf("trace: csv line %d: %w", line, err)
	}
	span.Subsystem = sub
	span.Op = op
	if span.Start, err = strconv.ParseFloat(row[5], 64); err != nil {
		return span, fmt.Errorf("trace: csv line %d start: %w", line, err)
	}
	if span.Duration, err = strconv.ParseFloat(row[6], 64); err != nil {
		return span, fmt.Errorf("trace: csv line %d duration: %w", line, err)
	}
	if span.Bytes, err = strconv.ParseInt(row[8], 10, 64); err != nil {
		return span, fmt.Errorf("trace: csv line %d bytes: %w", line, err)
	}
	if span.LBN, err = strconv.ParseInt(row[9], 10, 64); err != nil {
		return span, fmt.Errorf("trace: csv line %d lbn: %w", line, err)
	}
	if span.Bank, err = strconv.Atoi(row[10]); err != nil {
		return span, fmt.Errorf("trace: csv line %d bank: %w", line, err)
	}
	if span.Util, err = strconv.ParseFloat(row[11], 64); err != nil {
		return span, fmt.Errorf("trace: csv line %d util: %w", line, err)
	}
	return span, nil
}

// decodeAll drains a streaming reader: the requests it hands out before its
// first error, and that error (io.EOF for a stream accepted to the end). It
// stops at limit requests, reporting a nil error, so that a fuzz input cannot
// buy unbounded work.
func decodeAll(next func() (Request, error), limit int) ([]Request, error) {
	var out []Request
	for len(out) < limit {
		req, err := next()
		if err != nil {
			return out, err
		}
		out = append(out, req)
	}
	return out, nil
}

// sameRequest is equality of two decoded requests down to the bits of every
// float, so that NaN equals itself and -0 differs from +0.
func sameRequest(a, b *Request) bool {
	if a.ID != b.ID || a.Class != b.Class || a.Server != b.Server || a.Retries != b.Retries ||
		a.FailedOver != b.FailedOver || math.Float64bits(a.Arrival) != math.Float64bits(b.Arrival) ||
		len(a.Spans) != len(b.Spans) || (a.Spans == nil) != (b.Spans == nil) {
		return false
	}
	for i := range a.Spans {
		x, y := a.Spans[i], b.Spans[i]
		if x.Subsystem != y.Subsystem || x.Op != y.Op || x.Bytes != y.Bytes || x.LBN != y.LBN || x.Bank != y.Bank ||
			math.Float64bits(x.Start) != math.Float64bits(y.Start) ||
			math.Float64bits(x.Duration) != math.Float64bits(y.Duration) ||
			math.Float64bits(x.Util) != math.Float64bits(y.Util) {
			return false
		}
	}
	return true
}

// sameDecodeError is the error half of the reader's contract. Every error
// our own code words must read the same, strconv's text included. A syntax
// error of encoding/csv must come back as a *csv.ParseError under the same
// "trace: read csv ..." wording, with the same record and line numbers and
// the same sentinel (csv.ErrBareQuote, csv.ErrQuote, csv.ErrFieldCount);
// its column is the one thing not held equal.
func sameDecodeError(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	if got.Error() == want.Error() {
		return true
	}
	var gp, wp *csv.ParseError
	if !errors.As(got, &gp) || !errors.As(want, &wp) {
		return false
	}
	return gp.StartLine == wp.StartLine && gp.Line == wp.Line && gp.Err == wp.Err &&
		strings.TrimSuffix(got.Error(), gp.Error()) == strings.TrimSuffix(want.Error(), wp.Error())
}

// maxOracleRequests bounds the requests compared per input.
const maxOracleRequests = 1 << 16

// checkSpanReaderMatchesOracle holds SpanReader to oracleSpanReader on one
// input: the same requests in the same order, the same number of them before
// the first error, the same error by sameDecodeError, and that error sticky.
// SpanReader is run three times — on the bytes as they are, one byte per
// Read, and with the last bytes arriving together with io.EOF — and has to
// give the one answer each time.
func checkSpanReaderMatchesOracle(t *testing.T, input string) {
	t.Helper()
	want, wantErr := decodeAll(newOracleSpanReader(strings.NewReader(input)).Next, maxOracleRequests)
	wrappers := map[string]func(io.Reader) io.Reader{
		"plain":    func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"data-err": iotest.DataErrReader,
	}
	for name, wrap := range wrappers {
		d := NewSpanReader(wrap(strings.NewReader(input)))
		got, gotErr := decodeAll(d.Next, maxOracleRequests)
		if len(got) != len(want) {
			t.Fatalf("%s: %d requests before %v, oracle %d before %v", name, len(got), gotErr, len(want), wantErr)
		}
		for i := range got {
			if !sameRequest(&got[i], &want[i]) {
				t.Fatalf("%s: request %d differs\n got: %+v\nwant: %+v", name, i, got[i], want[i])
			}
		}
		if !sameDecodeError(gotErr, wantErr) {
			t.Fatalf("%s: after %d requests err = %v, oracle %v", name, len(got), gotErr, wantErr)
		}
		if gotErr != nil {
			if _, again := d.Next(); again != gotErr {
				t.Fatalf("%s: error not sticky: %v then %v", name, gotErr, again)
			}
		}
	}
}

// oracleWriteBinary is WriteBinary as it stood before the encoder became an
// append encoder with recycled scratch, moved here verbatim (names apart):
// a writer built from nothing for every trace, gathering request pointers
// and writing header, blocks and end marker one by one. It stays, test-only,
// as the reference AppendBinary and WriteBinary are held to byte for byte.
func oracleWriteBinary(w io.Writer, t *Trace) error {
	bw := newOracleBlockWriter(w)
	if err := bw.writeHeader(); err != nil {
		return err
	}
	for i := range t.Requests {
		if err := bw.add(&t.Requests[i]); err != nil {
			return err
		}
	}
	return bw.close()
}

// oracleBlockWriter accumulates requests and flushes them as columnar
// blocks. All scratch buffers are reused across blocks, so encoding a large
// trace allocates a handful of buffers total.
type oracleBlockWriter struct {
	w io.Writer

	reqs  []*Request
	spans int

	// classIdx and classes are the block-local dictionary.
	classIdx map[string]int
	classes  []string

	// payload assembles one block; head assembles the marker+length prefix.
	payload []byte
	head    []byte
}

func newOracleBlockWriter(w io.Writer) *oracleBlockWriter {
	return &oracleBlockWriter{
		w:        w,
		classIdx: make(map[string]int),
	}
}

func (bw *oracleBlockWriter) writeHeader() error {
	if _, err := io.WriteString(bw.w, binaryMagic+string(rune(binaryVersion))); err != nil {
		return fmt.Errorf("trace: write binary header: %w", err)
	}
	return nil
}

func (bw *oracleBlockWriter) add(r *Request) error {
	bw.reqs = append(bw.reqs, r)
	bw.spans += len(r.Spans)
	if len(bw.reqs) >= binaryBlockRequests || bw.spans >= binaryBlockSpans {
		return bw.flush()
	}
	return nil
}

func (bw *oracleBlockWriter) close() error {
	if err := bw.flush(); err != nil {
		return err
	}
	if _, err := bw.w.Write([]byte{markerEnd}); err != nil {
		return fmt.Errorf("trace: write binary end marker: %w", err)
	}
	return nil
}

// flush encodes the buffered requests as one block.
func (bw *oracleBlockWriter) flush() error {
	if len(bw.reqs) == 0 {
		return nil
	}
	p := bw.payload[:0]
	p = uv(p, uint64(len(bw.reqs)))
	p = uv(p, uint64(bw.spans))

	// Block-local class dictionary, first-seen order (deterministic).
	bw.classes = bw.classes[:0]
	clear(bw.classIdx)
	for _, r := range bw.reqs {
		if _, ok := bw.classIdx[r.Class]; !ok {
			bw.classIdx[r.Class] = len(bw.classes)
			bw.classes = append(bw.classes, r.Class)
		}
	}
	p = uv(p, uint64(len(bw.classes)))
	for _, c := range bw.classes {
		if len(c) > maxBinaryClassBytes {
			return fmt.Errorf("trace: class label of %d bytes exceeds the %d-byte limit", len(c), maxBinaryClassBytes)
		}
		p = uv(p, uint64(len(c)))
		p = append(p, c...)
	}

	// Request columns.
	var prevID int64
	for i, r := range bw.reqs {
		if i == 0 {
			p = sv(p, r.ID)
		} else {
			p = sv(p, r.ID-prevID)
		}
		prevID = r.ID
	}
	for _, r := range bw.reqs {
		p = uv(p, uint64(bw.classIdx[r.Class]))
	}
	for _, r := range bw.reqs {
		p = sv(p, int64(r.Server))
	}
	var prevF uint64
	for _, r := range bw.reqs {
		p = fbits(p, r.Arrival, &prevF)
	}
	for _, r := range bw.reqs {
		if r.Retries < 0 {
			return fmt.Errorf("trace: request %d has negative retries %d", r.ID, r.Retries)
		}
		p = uv(p, uint64(r.Retries))
	}
	p = appendBitmap(p, len(bw.reqs), func(i int) bool { return bw.reqs[i].FailedOver })
	for _, r := range bw.reqs {
		p = uv(p, uint64(len(r.Spans)))
	}

	// Span columns. The 2-bit enums are validated here: like the CSV codec
	// (whose String/Parse pair rejects them on the way back in), unknown
	// subsystems or ops cannot be represented.
	var err error
	p, err = oracleAppendPacked2(p, bw.reqs, func(s *Span) (uint8, error) {
		if s.Subsystem < 0 || s.Subsystem >= numSubsystems {
			return 0, fmt.Errorf("trace: span has invalid subsystem %d", s.Subsystem)
		}
		return uint8(s.Subsystem), nil
	})
	if err != nil {
		return err
	}
	p, err = oracleAppendPacked2(p, bw.reqs, func(s *Span) (uint8, error) {
		if s.Op < OpNone || s.Op > OpWrite {
			return 0, fmt.Errorf("trace: span has invalid op %d", s.Op)
		}
		return uint8(s.Op), nil
	})
	if err != nil {
		return err
	}
	prevF = 0
	for _, r := range bw.reqs {
		for i := range r.Spans {
			p = fbits(p, r.Spans[i].Start, &prevF)
		}
	}
	prevF = 0
	for _, r := range bw.reqs {
		for i := range r.Spans {
			p = fbits(p, r.Spans[i].Duration, &prevF)
		}
	}
	for _, r := range bw.reqs {
		for i := range r.Spans {
			p = sv(p, r.Spans[i].Bytes)
		}
	}
	for _, r := range bw.reqs {
		for i := range r.Spans {
			p = sv(p, r.Spans[i].LBN)
		}
	}
	for _, r := range bw.reqs {
		for i := range r.Spans {
			p = sv(p, int64(r.Spans[i].Bank))
		}
	}
	prevF = 0
	for _, r := range bw.reqs {
		for i := range r.Spans {
			p = fbits(p, r.Spans[i].Util, &prevF)
		}
	}

	bw.payload = p
	bw.head = uv(append(bw.head[:0], markerBlock), uint64(len(p)))
	if _, err := bw.w.Write(bw.head); err != nil {
		return fmt.Errorf("trace: write binary block: %w", err)
	}
	if _, err := bw.w.Write(p); err != nil {
		return fmt.Errorf("trace: write binary block: %w", err)
	}
	bw.reqs = bw.reqs[:0]
	bw.spans = 0
	return nil
}

// oracleAppendPacked2 packs one 2-bit value per span, four to a byte, LSB-first.
func oracleAppendPacked2(p []byte, reqs []*Request, val func(*Span) (uint8, error)) ([]byte, error) {
	var cur byte
	var i int
	for _, r := range reqs {
		for j := range r.Spans {
			v, err := val(&r.Spans[j])
			if err != nil {
				return nil, err
			}
			cur |= v << ((i % 4) * 2)
			if i%4 == 3 {
				p = append(p, cur)
				cur = 0
			}
			i++
		}
	}
	if i%4 != 0 {
		p = append(p, cur)
	}
	return p, nil
}

// checkBinaryMatchesOracle holds AppendBinary and WriteBinary to the
// pre-change writer on one trace: the same verdict and, for a trace the
// format carries, the same bytes; a refused trace leaves dst as it was.
func checkBinaryMatchesOracle(t *testing.T, tr *Trace) {
	t.Helper()
	var want bytes.Buffer
	wantErr := oracleWriteBinary(&want, tr)
	got, err := AppendBinary([]byte("prefix"), tr.Requests)
	var buf bytes.Buffer
	werr := WriteBinary(&buf, tr)
	if wantErr != nil {
		if err == nil || werr == nil {
			t.Fatalf("the old writer refuses the trace (%v), AppendBinary err = %v, WriteBinary err = %v", wantErr, err, werr)
		}
		if err.Error() != wantErr.Error() || werr.Error() != wantErr.Error() {
			t.Fatalf("refusal worded differently: old %q, AppendBinary %q, WriteBinary %q", wantErr, err, werr)
		}
		if string(got) != "prefix" {
			t.Fatalf("a refused trace changed dst: %q", got)
		}
		return
	}
	if err != nil || werr != nil {
		t.Fatalf("the old writer accepts the trace, AppendBinary err = %v, WriteBinary err = %v", err, werr)
	}
	if !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
		t.Fatalf("AppendBinary differs from the old writer (%d bytes against %d)", len(got)-len("prefix"), want.Len())
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("WriteBinary differs from the old writer (%d bytes against %d)", buf.Len(), want.Len())
	}
}

// TestAppendBinaryMatchesWrite: the six preset goldens, their .dct fixtures
// and the hand-built traces re-encode to the same bytes through
// AppendBinary, WriteBinary and the old writer; a .dct fixture re-encodes to
// itself.
func TestAppendBinaryMatchesWrite(t *testing.T) {
	long := benchCodecTrace()
	for len(long.Requests) < 3*binaryBlockRequests+7 { // several blocks
		long.Requests = append(long.Requests, long.Requests...)
	}
	traces := map[string]*Trace{
		"nil requests":   {},
		"empty requests": {Requests: []Request{}},
		"sample":         sampleTrace(),
		"corners":        binaryTestTrace(),
		"oracle":         oracleTrace(), // refused: enums outside the 2-bit columns
		"bench":          benchCodecTrace(),
		"several blocks": long,
		"span-cut block": {Requests: []Request{{ID: 1, Spans: make([]Span, binaryBlockSpans+1)}, {ID: 2}, {ID: 3, Spans: make([]Span, 3)}}},
	}
	for _, name := range presetGoldens(t) {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		traces[filepath.Base(name)] = tr
	}
	fixtures, err := filepath.Glob("../spec/testdata/*.golden.dct")
	if err != nil || len(fixtures) != 6 {
		t.Fatalf(".dct fixtures: got %d (%v), want 6", len(fixtures), err)
	}
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		traces[filepath.Base(name)] = tr
		if got, err := AppendBinary(nil, tr.Requests); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: AppendBinary(ReadBinary(fixture)) != fixture (err %v)", name, err)
		}
	}
	for name, tr := range traces {
		t.Run(name, func(t *testing.T) { checkBinaryMatchesOracle(t, tr) })
	}
	for _, class := range append([]string{strings.Repeat("c", maxBinaryClassBytes), strings.Repeat("c", maxBinaryClassBytes+1)}, oracleClasses...) {
		for _, v := range oracleFloats {
			tr := binaryTestTrace()
			perturb(tr, class, v)
			checkBinaryMatchesOracle(t, tr)
		}
	}
}

// FuzzAppendBinaryMatchesOracle: whatever trace a reader accepts (trace-v2,
// CSV, or JSON with the enum values only it can carry), with a fuzzed class
// and float planted in it, encodes to the bytes the old writer wrote, or is
// refused in the same words.
func FuzzAppendBinaryMatchesOracle(f *testing.F) {
	addOracleSeeds(f, func(tr *Trace) []byte {
		if out, err := AppendBinary(nil, tr.Requests); err == nil {
			return out
		}
		out, err := oracleJSON(tr) // oracleTrace: what trace-v2 refuses
		if err != nil {
			f.Fatal(err)
		}
		return out
	})
	f.Fuzz(func(t *testing.T, input []byte, class string, bits uint64) {
		tr, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			tr, err = ReadCSV(bytes.NewReader(input))
		}
		if err != nil {
			tr, err = ReadJSON(bytes.NewReader(input))
		}
		if err != nil {
			tr = binaryTestTrace()
		}
		perturb(tr, class, math.Float64frombits(bits))
		checkBinaryMatchesOracle(t, tr)
	})
}

// TestReadersRefuseNegativeRetries: a retry count below zero is refused on
// the way in, by every reader, with the place it stands at. trace-v2 cannot
// carry one, so a reader that let it through handed the cluster coordinator
// a request it could not forward.
func TestReadersRefuseNegativeRetries(t *testing.T) {
	row := strings.Join(csvHeader, ",") + "\n1,c,0,0,cpu,0,0,none,0,0,0,0,0,0\n2,c,0,0,cpu,0,0,none,0,0,0,0,-1,0\n"
	const want = "trace: csv line 3 retries: negative count -1"
	if _, err := ReadCSV(strings.NewReader(row)); err == nil || err.Error() != want {
		t.Errorf("ReadCSV err = %v, want %q", err, want)
	}
	if _, err := decodeAll(newOracleSpanReader(strings.NewReader(row)).Next, 10); err == nil || err.Error() != want {
		t.Errorf("oracle reader err = %v, want %q", err, want)
	}
	checkSpanReaderMatchesOracle(t, row)
	_, err := ReadJSON(strings.NewReader(`{"Requests":[{"ID":4},{"ID":5,"Retries":-2}]}`))
	if err == nil || !strings.Contains(err.Error(), "request 5 (index 1) has negative retries -2") {
		t.Errorf("ReadJSON err = %v, want request 5 at index 1 refused", err)
	}
}

// oracleBinaryReader is BinarySpanReader as it stood before its decoder
// went column at a time, moved here verbatim (names apart): one non-inlined
// varint call per value, spans carved request by request, block buffers
// owned by the reader. It stays, test-only, as the reference the reader is
// held to by checkBinaryReaderMatchesOracle: the same requests and the same
// errors, word for word, at the same place.
type oracleBinaryReader struct {
	r       io.Reader
	started bool
	err     error

	// pending holds the decoded requests of the current block.
	pending []Request
	next    int

	// payload is the reused block read buffer; arena carves span slices.
	payload []byte
	scratch oracleBlockScratch
	arena   SpanArena
}

// oracleBlockScratch holds the reusable per-block column slices.
type oracleBlockScratch struct {
	classes  []string
	spanCnt  []int
	head     [5]byte // the stream header, then one byte at a time
	spans    []Span  // set per block to the arena reservation
	spanNext int
}

func newOracleBinaryReader(r io.Reader) *oracleBinaryReader {
	return &oracleBinaryReader{r: r}
}

func (d *oracleBinaryReader) fail(err error) (Request, error) {
	d.err = err
	return Request{}, err
}

// Next returns the next decoded request, or io.EOF when the stream ends
// cleanly (after the end marker). Errors are sticky.
func (d *oracleBinaryReader) Next() (Request, error) {
	if d.err != nil {
		return Request{}, d.err
	}
	if !d.started {
		if err := d.readHeader(); err != nil {
			return d.fail(err)
		}
		d.started = true
	}
	for d.next >= len(d.pending) {
		if err := d.readBlock(); err != nil {
			return d.fail(err)
		}
	}
	req := d.pending[d.next]
	d.pending[d.next] = Request{} // drop the reference early
	d.next++
	return req, nil
}

func (d *oracleBinaryReader) readHeader() error {
	hdr := &d.scratch.head
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return fmt.Errorf("trace: read binary header: %w", err)
	}
	if string(hdr[:4]) != binaryMagic {
		return fmt.Errorf("trace: bad magic %q, want %q", hdr[:4], binaryMagic)
	}
	if hdr[4] != binaryVersion {
		return fmt.Errorf("trace: unsupported trace-v2 version %d (want %d)", hdr[4], binaryVersion)
	}
	return nil
}

// readBlock reads and decodes the next block into d.pending, or returns
// io.EOF at the end marker.
func (d *oracleBinaryReader) readBlock() error {
	one := d.scratch.head[:1]
	if _, err := io.ReadFull(d.r, one); err != nil {
		if err == io.EOF {
			return fmt.Errorf("trace: binary stream truncated before end marker: %w", io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("trace: read block marker: %w", err)
	}
	switch one[0] {
	case markerEnd:
		return io.EOF
	case markerBlock:
	default:
		return fmt.Errorf("trace: bad block marker 0x%02x", one[0])
	}
	size, err := oracleReadUvarint(d.r, one)
	if err != nil {
		return fmt.Errorf("trace: read block length: %w", err)
	}
	if size == 0 || size > maxBinaryBlockBytes {
		return fmt.Errorf("trace: block length %d outside (0, %d]", size, maxBinaryBlockBytes)
	}
	if cap(d.payload) < int(size) {
		d.payload = make([]byte, size)
	}
	p := d.payload[:size]
	if _, err := io.ReadFull(d.r, p); err != nil {
		return fmt.Errorf("trace: read block payload: %w", err)
	}
	return d.decodeBlock(p)
}

// oracleCursor walks a block payload.
type oracleCursor struct {
	p   []byte
	off int
}

func (c *oracleCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.p[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: block offset %d: bad uvarint", c.off)
	}
	c.off += n
	return v, nil
}

func (c *oracleCursor) varint() (int64, error) {
	v, n := binary.Varint(c.p[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: block offset %d: bad varint", c.off)
	}
	c.off += n
	return v, nil
}

func (c *oracleCursor) float(prev *uint64) (float64, error) {
	x, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	*prev ^= x
	return math.Float64frombits(*prev), nil
}

func (c *oracleCursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.p) {
		return nil, fmt.Errorf("trace: block offset %d: %d bytes past payload end", c.off, n)
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (d *oracleBinaryReader) decodeBlock(p []byte) error {
	c := oracleCursor{p: p}
	nReq64, err := c.uvarint()
	if err != nil {
		return err
	}
	// Every request consumes at least one byte per request column, so the
	// payload length itself bounds a plausible count; the hard cap stops
	// one lying block from forcing a giant allocation.
	if nReq64 == 0 || nReq64 > maxBinaryBlockRequests || nReq64 > uint64(len(p)) {
		return fmt.Errorf("trace: block claims %d requests in %d payload bytes", nReq64, len(p))
	}
	nReq := int(nReq64)
	nSpan64, err := c.uvarint()
	if err != nil {
		return err
	}
	if nSpan64 > uint64(len(p)) {
		return fmt.Errorf("trace: block claims %d spans in %d payload bytes", nSpan64, len(p))
	}
	nSpan := int(nSpan64)

	// Class dictionary.
	nClass64, err := c.uvarint()
	if err != nil {
		return err
	}
	if nClass64 == 0 || nClass64 > nReq64 {
		return fmt.Errorf("trace: block claims %d classes for %d requests", nClass64, nReq64)
	}
	classes := d.scratch.classes[:0]
	for i := 0; i < int(nClass64); i++ {
		l, err := c.uvarint()
		if err != nil {
			return err
		}
		if l > maxBinaryClassBytes {
			return fmt.Errorf("trace: class label of %d bytes exceeds the %d-byte limit", l, maxBinaryClassBytes)
		}
		b, err := c.bytes(int(l))
		if err != nil {
			return err
		}
		classes = append(classes, string(b))
	}
	d.scratch.classes = classes

	if cap(d.pending) < nReq {
		d.pending = make([]Request, nReq)
	}
	reqs := d.pending[:nReq]
	for i := range reqs {
		reqs[i] = Request{}
	}

	// Request columns.
	var prevID int64
	for i := range reqs {
		delta, err := c.varint()
		if err != nil {
			return err
		}
		prevID += delta
		reqs[i].ID = prevID
	}
	for i := range reqs {
		ci, err := c.uvarint()
		if err != nil {
			return err
		}
		if ci >= uint64(len(classes)) {
			return fmt.Errorf("trace: class index %d outside dictionary of %d", ci, len(classes))
		}
		reqs[i].Class = classes[ci]
	}
	for i := range reqs {
		s, err := c.varint()
		if err != nil {
			return err
		}
		reqs[i].Server = int(s)
	}
	var prevF uint64
	for i := range reqs {
		if reqs[i].Arrival, err = c.float(&prevF); err != nil {
			return err
		}
	}
	for i := range reqs {
		rt, err := c.uvarint()
		if err != nil {
			return err
		}
		if rt > math.MaxInt32 {
			return fmt.Errorf("trace: retries %d out of range", rt)
		}
		reqs[i].Retries = int(rt)
	}
	fo, err := c.bytes((nReq + 7) / 8)
	if err != nil {
		return err
	}
	for i := range reqs {
		reqs[i].FailedOver = fo[i/8]&(1<<(i%8)) != 0
	}
	spanCnt := d.scratch.spanCnt[:0]
	var total int
	for range reqs {
		n, err := c.uvarint()
		if err != nil {
			return err
		}
		if n > maxSpansPerRequest {
			return fmt.Errorf("trace: request exceeds %d spans", maxSpansPerRequest)
		}
		total += int(n)
		if total > nSpan {
			return fmt.Errorf("trace: span counts exceed the block's %d spans", nSpan)
		}
		spanCnt = append(spanCnt, int(n))
	}
	d.scratch.spanCnt = spanCnt
	if total != nSpan {
		return fmt.Errorf("trace: span counts sum to %d, block claims %d", total, nSpan)
	}

	// One arena reservation covers the whole block's spans; each request's
	// slice is carved from it below.
	d.arena.Reserve(nSpan)
	for i := range reqs {
		reqs[i].Spans = d.arena.Take(spanCnt[i])
		reqs[i].Spans = reqs[i].Spans[:spanCnt[i]]
	}

	// Span columns.
	subs, err := c.bytes((nSpan + 3) / 4)
	if err != nil {
		return err
	}
	ops, err := c.bytes((nSpan + 3) / 4)
	if err != nil {
		return err
	}
	k := 0
	for i := range reqs {
		for j := range reqs[i].Spans {
			sub := Subsystem(subs[k/4] >> ((k % 4) * 2) & 3)
			op := Op(ops[k/4] >> ((k % 4) * 2) & 3)
			if op > OpWrite {
				return fmt.Errorf("trace: span %d has invalid op %d", k, op)
			}
			reqs[i].Spans[j].Subsystem = sub
			reqs[i].Spans[j].Op = op
			k++
		}
	}
	prevF = 0
	for i := range reqs {
		for j := range reqs[i].Spans {
			if reqs[i].Spans[j].Start, err = c.float(&prevF); err != nil {
				return err
			}
		}
	}
	prevF = 0
	for i := range reqs {
		for j := range reqs[i].Spans {
			if reqs[i].Spans[j].Duration, err = c.float(&prevF); err != nil {
				return err
			}
		}
	}
	for i := range reqs {
		for j := range reqs[i].Spans {
			if reqs[i].Spans[j].Bytes, err = c.varint(); err != nil {
				return err
			}
		}
	}
	for i := range reqs {
		for j := range reqs[i].Spans {
			if reqs[i].Spans[j].LBN, err = c.varint(); err != nil {
				return err
			}
		}
	}
	for i := range reqs {
		for j := range reqs[i].Spans {
			b, err := c.varint()
			if err != nil {
				return err
			}
			reqs[i].Spans[j].Bank = int(b)
		}
	}
	prevF = 0
	for i := range reqs {
		for j := range reqs[i].Spans {
			if reqs[i].Spans[j].Util, err = c.float(&prevF); err != nil {
				return err
			}
		}
	}
	if c.off != len(p) {
		return fmt.Errorf("trace: %d trailing bytes in block", len(p)-c.off)
	}
	d.pending = reqs
	d.next = 0
	return nil
}

// oracleReadUvarint reads one uvarint directly from r, a byte at a time
// through b (used only for the block length prefix; everything else decodes
// from the in-memory payload).
func oracleReadUvarint(r io.Reader, b []byte) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if _, err := io.ReadFull(r, b[:1]); err != nil {
			return 0, err
		}
		if b[0] < 0x80 {
			if i == binary.MaxVarintLen64-1 && b[0] > 1 {
				return 0, fmt.Errorf("uvarint overflows 64 bits")
			}
			return x | uint64(b[0])<<s, nil
		}
		x |= uint64(b[0]&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("uvarint overflows 64 bits")
}

// checkBinaryReaderMatchesOracle holds BinarySpanReader to oracleBinaryReader
// on one stream: the same requests in the same order, the same number of them
// before the first error, the same error text, and that error sticky. A fresh
// reader is run on the bytes as they are and, for a stream of up to 4 KiB,
// one byte per Read; reused, a
// reader already taken through other streams, is re-armed on it with Reuse.
func checkBinaryReaderMatchesOracle(t *testing.T, data []byte, reused *BinarySpanReader) {
	t.Helper()
	want, wantErr := decodeAll(newOracleBinaryReader(bytes.NewReader(data)).Next, maxOracleRequests)
	check := func(name string, d *BinarySpanReader) {
		t.Helper()
		got, gotErr := decodeAll(d.Next, maxOracleRequests)
		if len(got) != len(want) {
			t.Fatalf("%s: %d requests before %v, oracle %d before %v", name, len(got), gotErr, len(want), wantErr)
		}
		for i := range got {
			if !sameRequest(&got[i], &want[i]) {
				t.Fatalf("%s: request %d differs\n got: %+v\nwant: %+v", name, i, got[i], want[i])
			}
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: after %d requests err = %v, oracle %v", name, len(got), gotErr, wantErr)
		}
		if gotErr != nil {
			if _, again := d.Next(); again != gotErr {
				t.Fatalf("%s: error not sticky: %v then %v", name, gotErr, again)
			}
		}
	}
	check("fresh", NewBinarySpanReader(bytes.NewReader(data)))
	if len(data) <= 4<<10 {
		check("fresh one-byte", NewBinarySpanReader(iotest.OneByteReader(bytes.NewReader(data))))
	}
	// Compared before the next Reuse takes the spans back.
	reused.Reuse(bytes.NewReader(data))
	check("reused", reused)
}

// binaryOracleStreams are the valid streams the reader is held to the
// oracle on, whole and mutated: the six .dct fixtures, the six preset
// goldens, the corner-case trace and a trace of several blocks.
func binaryOracleStreams(tb testing.TB) map[string][]byte {
	tb.Helper()
	streams := map[string][]byte{}
	fixtures, err := filepath.Glob("../spec/testdata/*.golden.dct")
	if err != nil || len(fixtures) != 6 {
		tb.Fatalf(".dct fixtures: got %d (%v), want 6", len(fixtures), err)
	}
	for _, name := range fixtures {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		streams[filepath.Base(name)] = data
	}
	for _, name := range presetGoldens(tb) {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		streams[filepath.Base(name)] = encodeBinary(tb, tr)
	}
	long := &Trace{Requests: make([]Request, 2*binaryBlockRequests+5)}
	for i := range long.Requests {
		long.Requests[i] = Request{ID: int64(i), Class: [...]string{"get", "put"}[i%2], Arrival: float64(i) / 100,
			Spans: []Span{{Subsystem: Subsystem(i % 4), Start: float64(i) / 100, Op: Op(i % 3), Bytes: int64(i), LBN: int64(-i)}}}
	}
	streams["corners"] = encodeBinary(tb, binaryTestTrace())
	streams["several blocks"] = encodeBinary(tb, long)
	streams["empty"] = encodeBinary(tb, &Trace{})
	return streams
}

// TestBinaryReaderMatchesOracle: on every valid stream above, on every
// prefix and every single-byte change of the corner-case stream and on a
// spread of byte changes to the others, the reader gives the oracle's
// requests or the oracle's error at the oracle's request, fresh and reused.
func TestBinaryReaderMatchesOracle(t *testing.T) {
	streams := binaryOracleStreams(t)
	reused := NewBinarySpanReader(nil)
	for name, data := range streams {
		t.Run(name, func(t *testing.T) {
			checkBinaryReaderMatchesOracle(t, data, reused)
			// Every byte of a small stream, 64 spread over a large one.
			step := max(1, len(data)/64)
			for i := 0; i < len(data); i += step {
				for _, x := range []byte{0x01, 0x40, 0x7f, 0x80, 0xfe, 0xff} {
					b := append([]byte(nil), data...)
					b[i] ^= x
					checkBinaryReaderMatchesOracle(t, b, reused)
				}
			}
		})
	}
	corners := streams["corners"]
	for i := 0; i <= len(corners); i++ {
		checkBinaryReaderMatchesOracle(t, corners[:i], reused)
	}
	for i := range corners {
		for x := 1; x < 256; x++ {
			b := append([]byte(nil), corners...)
			b[i] ^= byte(x)
			checkBinaryReaderMatchesOracle(t, b, reused)
		}
	}
}

// FuzzBinaryReaderMatchesOracle: on any bytes at all, the reader gives the
// oracle's requests and the oracle's error, fresh and reused.
func FuzzBinaryReaderMatchesOracle(f *testing.F) {
	for _, data := range binaryOracleStreams(f) {
		f.Add(data)
	}
	for _, s := range []string{
		"", "DCT2", binaryMagic + "\x00", binaryMagic + "\x01", binaryMagic + "\x01\x00",
		binaryMagic + "\x01\x02\x05hello", binaryMagic + "\x01\x01\xff\xff\xff\xff\x7f",
		binaryMagic + "\x01\x01\x02\xff\x7f\x00", "TCD2\x01\x00",
	} {
		f.Add([]byte(s))
	}
	reused := NewBinarySpanReader(nil)
	f.Fuzz(func(t *testing.T, input []byte) {
		checkBinaryReaderMatchesOracle(t, input, reused)
	})
}
