package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
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
