package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Trace codecs: a flat CSV span format (one row per span, with request
// fields repeated — convenient for external tools) and JSON (lossless).
//
// Both are written straight into a byte slice, every number by the kernel
// in fnum.go, and both are held, byte for byte, to what encoding/csv and
// encoding/json produce for the same trace (oracle_test.go keeps those
// writers as the reference). The CSV reader is SpanReader (stream.go);
// encoding/json is used only to read and to escape a class name that is
// not plain ASCII.

// csvHeader is the column layout of the CSV codec. The trailing retries and
// failover columns carry the per-request failure-recovery annotations; they
// were added with the fault-injection engine, and readers also accept the
// older 12-column layout without them (see SpanReader).
var csvHeader = []string{
	"req_id", "class", "server", "arrival",
	"subsystem", "start", "duration", "op", "bytes", "lbn", "bank", "util",
	"retries", "failover",
}

// csvHeaderLine is csvHeader as the first line of the format.
var csvHeaderLine = strings.Join(csvHeader, ",") + "\n"

// numLegacyCSVColumns is the column count of the pre-fault layout, which
// ends at the util column.
const numLegacyCSVColumns = 12

// flushBytes is how much text WriteCSV and WriteJSON gather before handing
// it to the writer, so a trace of any length streams through a scratch
// slice of about this size.
const flushBytes = 64 << 10

// encoder renders a trace as text into buf. With a writer it hands buf
// over and starts again whenever buf passes flushBytes (WriteCSV,
// WriteJSON); without one it only appends (AppendCSV, AppendJSON).
type encoder struct {
	buf   []byte
	w     io.Writer
	texts floatTexts
}

// newEncoder returns a writing encoder whose scratch slice is sized for the
// trace at hand: a ten-request answer does not pay for 64 KiB.
func newEncoder(w io.Writer, t *Trace) *encoder {
	return &encoder{w: w, buf: make([]byte, 0, min(512*len(t.Requests)+256, flushBytes+flushBytes/8))}
}

// spill hands buf to the writer once it passed flushBytes.
func (e *encoder) spill() error {
	if len(e.buf) < flushBytes {
		return nil
	}
	return e.flush()
}

// flush hands buf to the writer, when there is one.
func (e *encoder) flush() error {
	if e.w == nil || len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// AppendCSV appends the trace in the flat span-per-row CSV format to dst
// and returns the extended slice. Requests without spans are written as a
// single row with an empty subsystem.
func AppendCSV(dst []byte, t *Trace) []byte {
	e := encoder{buf: dst}
	_ = e.csv(t) // only a writer can fail
	return e.buf
}

// WriteCSV writes the trace in the AppendCSV format, in chunks of about
// 64 KiB.
func WriteCSV(w io.Writer, t *Trace) error {
	if err := newEncoder(w, t).csv(t); err != nil {
		return fmt.Errorf("trace: write csv: %w", err)
	}
	return nil
}

func (e *encoder) csv(t *Trace) error {
	e.buf = append(e.buf, csvHeaderLine...)
	for i := range t.Requests {
		e.buf = appendCSVRequest(e.buf, &t.Requests[i], &e.texts)
		if err := e.spill(); err != nil {
			return err
		}
	}
	return e.flush()
}

// appendCSVRequest appends the rows of one request. The req_id..arrival
// prefix and the retries,failover suffix repeat on every row of a request,
// so they are formatted once and copied for each further span, and so is
// the arrival for every span that starts at it. Durations and utilizations
// go through texts.
func appendCSVRequest(dst []byte, r *Request, texts *floatTexts) []byte {
	p0 := len(dst)
	dst = appendInt(dst, r.ID)
	dst = append(dst, ',')
	dst = appendCSVField(dst, r.Class)
	dst = append(dst, ',')
	dst = appendInt(dst, int64(r.Server))
	dst = append(dst, ',')
	a0 := len(dst)
	dst = appendFloatG(dst, r.Arrival)
	a1 := len(dst)
	dst = append(dst, ',')
	p1 := len(dst)
	arrival := math.Float64bits(r.Arrival)

	var sufBuf [24]byte
	suffix := append(sufBuf[:0], ',')
	suffix = appendInt(suffix, int64(r.Retries))
	if r.FailedOver {
		suffix = append(suffix, ",1\n"...)
	} else {
		suffix = append(suffix, ",0\n"...)
	}

	if len(r.Spans) == 0 {
		dst = append(dst, ",,,,,,,"...) // subsystem..util, all empty
		return append(dst, suffix...)
	}
	for i := range r.Spans {
		s := &r.Spans[i]
		if i > 0 {
			// Safe across a reallocation: the source keeps pointing into
			// the array the prefix was formatted in.
			dst = append(dst, dst[p0:p1]...)
		}
		dst = append(dst, s.Subsystem.String()...)
		dst = append(dst, ',')
		if math.Float64bits(s.Start) == arrival {
			// A first span starts at the arrival, and in a trace not yet
			// replayed every span does: the same bits print the same.
			dst = append(dst, dst[a0:a1]...)
		} else {
			dst = appendFloatG(dst, s.Start)
		}
		dst = append(dst, ',')
		dst = texts.duration.append(dst, s.Duration, appendFloatG)
		dst = append(dst, ',')
		dst = append(dst, s.Op.String()...)
		dst = append(dst, ',')
		dst = appendInt(dst, s.Bytes)
		dst = append(dst, ',')
		dst = appendInt(dst, s.LBN)
		dst = append(dst, ',')
		dst = appendInt(dst, int64(s.Bank))
		dst = append(dst, ',')
		dst = texts.util.append(dst, s.Util, appendFloatG)
		dst = append(dst, suffix...)
	}
	return dst
}

// floatTexts are the text caches of the two float columns whose values
// recur: the service time every span of one kind and size takes, the
// utilization KOOZA gives all CPU spans of a request. An encoder keeps them
// for one trace in one format.
type floatTexts struct{ duration, util textCache }

// textCache holds the text of floats one column printed, direct-mapped by
// their bits, so that a value met again is copied instead of formatted:
// the same bits print the same. +0, most columns of most rows, is written
// directly and never enters.
type textCache [16]struct {
	bits uint64
	n    uint8
	text [maxFloatText]byte
}

// maxFloatText is the longest text either layout prints for a float64:
// "-0.0000012345678901234567" in JSON's.
const maxFloatText = 25

// append appends v as format prints it.
func (c *textCache) append(dst []byte, v float64, format func([]byte, float64) []byte) []byte {
	b := math.Float64bits(v)
	if b == 0 {
		return append(dst, '0')
	}
	e := &c[b*0x9e3779b97f4a7c15>>60]
	if e.bits == b {
		return append(dst, e.text[:e.n]...)
	}
	lo := len(dst)
	dst = format(dst, v)
	if n := len(dst) - lo; n <= maxFloatText {
		e.bits, e.n = b, uint8(copy(e.text[:], dst[lo:]))
	}
	return dst
}

// appendCSVField appends a free-form field, quoted by exactly the rule of
// encoding/csv's Writer (comma ',', no CRLF): a field is quoted when it is
// `\.`, contains a comma, quote, CR or LF, or starts with a space rune;
// inside the quotes only the quote is doubled.
func appendCSVField(dst []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, field[i])
	}
	return append(dst, '"')
}

func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// ReadCSV reads a trace from the CSV format written by WriteCSV. Rows
// sharing a req_id are folded into one request; rows must be grouped by
// request (as WriteCSV emits them). It is the batch wrapper around the
// streaming SpanReader, so both share one parsing path.
func ReadCSV(r io.Reader) (*Trace, error) {
	d := NewSpanReader(r)
	t := &Trace{}
	for {
		req, err := d.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Requests = append(t.Requests, req)
	}
}

// AppendJSON appends the trace as JSON (lossless round trip) to dst and
// returns the extended slice: the bytes json.NewEncoder(w).Encode(t) writes,
// trailing newline included. Like encoding/json it refuses NaN and ±Inf, in
// which case dst comes back as it went in.
func AppendJSON(dst []byte, t *Trace) ([]byte, error) {
	e := encoder{buf: dst}
	if err := e.json(t); err != nil {
		return dst, fmt.Errorf("trace: encode json: %w", err)
	}
	return e.buf, nil
}

// WriteJSON writes the trace in the AppendJSON format, in chunks of about
// 64 KiB. A trace it refuses leaves w untouched.
func WriteJSON(w io.Writer, t *Trace) error {
	if err := newEncoder(w, t).json(t); err != nil {
		return fmt.Errorf("trace: encode json: %w", err)
	}
	return nil
}

func (e *encoder) json(t *Trace) error {
	if e.w != nil {
		// A writer may have been handed part of the text by the time a
		// refused float turns up, so WriteJSON checks every float first;
		// AppendJSON refuses in the write itself and hands dst back.
		if err := checkJSONFloats(t); err != nil {
			return err
		}
	}
	if t.Requests == nil {
		e.buf = append(e.buf, "{\"Requests\":null}\n"...)
		return e.flush()
	}
	e.buf = append(e.buf, `{"Requests":[`...)
	for i := range t.Requests {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		var err error
		if e.buf, err = appendJSONRequest(e.buf, &t.Requests[i], &e.texts); err != nil {
			return err
		}
		if err := e.spill(); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, "]}\n"...)
	return e.flush()
}

// checkJSONFloats reports the first float of the trace JSON cannot carry.
func checkJSONFloats(t *Trace) error {
	for i := range t.Requests {
		r := &t.Requests[i]
		if !finite(r.Arrival) {
			return unsupportedFloat(r.Arrival)
		}
		for j := range r.Spans {
			if err := checkSpanFloats(&r.Spans[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSpanFloats reports the first float of s JSON cannot carry.
func checkSpanFloats(s *Span) error {
	for _, v := range [...]float64{s.Start, s.Duration, s.Util} {
		if !finite(v) {
			return unsupportedFloat(v)
		}
	}
	return nil
}

func finite(v float64) bool { return math.Float64bits(v)>>52&0x7ff != 0x7ff }

// unsupportedFloat is encoding/json's complaint about NaN or ±Inf.
func unsupportedFloat(v float64) error {
	return fmt.Errorf("unsupported value: %s", appendFloatG(nil, v))
}

// appendJSONRequest appends one request object: the fields in declaration
// order, Retries and FailedOver omitted when zero, a nil Spans as null. Its
// floats are written as appendCSVRequest writes them; the first one JSON
// cannot carry is an error.
func appendJSONRequest(dst []byte, r *Request, texts *floatTexts) ([]byte, error) {
	dst = append(dst, `{"ID":`...)
	dst = appendInt(dst, r.ID)
	dst = append(dst, `,"Class":`...)
	dst = appendJSONString(dst, r.Class)
	dst = append(dst, `,"Server":`...)
	dst = appendInt(dst, int64(r.Server))
	dst = append(dst, `,"Arrival":`...)
	if !finite(r.Arrival) {
		return dst, unsupportedFloat(r.Arrival)
	}
	a0 := len(dst)
	dst = appendFloatJSON(dst, r.Arrival)
	a1 := len(dst)
	arrival := math.Float64bits(r.Arrival)
	if r.Retries != 0 {
		dst = append(dst, `,"Retries":`...)
		dst = appendInt(dst, int64(r.Retries))
	}
	if r.FailedOver {
		dst = append(dst, `,"FailedOver":true`...)
	}
	if r.Spans == nil {
		return append(dst, `,"Spans":null}`...), nil
	}
	dst = append(dst, `,"Spans":[`...)
	for i := range r.Spans {
		s := &r.Spans[i]
		if err := checkSpanFloats(s); err != nil {
			return dst, err
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Subsystem":`...)
		dst = appendInt(dst, int64(s.Subsystem))
		dst = append(dst, `,"Start":`...)
		if math.Float64bits(s.Start) == arrival {
			dst = append(dst, dst[a0:a1]...) // as in appendCSVRequest
		} else {
			dst = appendFloatJSON(dst, s.Start)
		}
		dst = append(dst, `,"Duration":`...)
		dst = texts.duration.append(dst, s.Duration, appendFloatJSON)
		dst = append(dst, `,"Op":`...)
		dst = appendInt(dst, int64(s.Op))
		dst = append(dst, `,"Bytes":`...)
		dst = appendInt(dst, s.Bytes)
		dst = append(dst, `,"LBN":`...)
		dst = appendInt(dst, s.LBN)
		dst = append(dst, `,"Bank":`...)
		dst = appendInt(dst, int64(s.Bank))
		dst = append(dst, `,"Util":`...)
		dst = texts.util.append(dst, s.Util, appendFloatJSON)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

// appendJSONString appends a JSON string. Printable ASCII that needs no
// escape — encoding/json escapes the quote, the backslash and, for HTML
// safety, < > & — is copied as it is; any other string goes through
// encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ReadJSON reads a trace written by WriteJSON. Like the CSV reader it
// refuses a retry count outside [0, MaxInt32], which trace-v2 cannot carry.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	for i := range t.Requests {
		switch r := &t.Requests[i]; {
		case r.Retries < 0:
			return nil, fmt.Errorf("trace: decode json: request %d (index %d) has negative retries %d", r.ID, i, r.Retries)
		case r.Retries > maxRetries:
			return nil, fmt.Errorf("trace: decode json: request %d (index %d) has retries %d above %d", r.ID, i, r.Retries, maxRetries)
		}
	}
	return &t, nil
}
