package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
)

// binaryTestTrace covers the codec's corners: empty-span requests, negative
// LBN/Bytes/Server, out-of-order IDs (negative deltas), repeated and
// distinct classes, retries/failover annotations, zero and subnormal floats.
func binaryTestTrace() *Trace {
	return &Trace{Requests: []Request{
		{ID: 7, Class: "read64K", Server: 2, Arrival: 0.125, Retries: 3, FailedOver: true,
			Spans: []Span{
				{Subsystem: Network, Start: 0.125, Duration: 1e-3, Op: OpNone, Bytes: 64 << 10, Util: 0.5},
				{Subsystem: Storage, Start: 0.126, Duration: 2e-3, Op: OpWrite, Bytes: -1, LBN: 1 << 40, Bank: 7, Util: 1},
			}},
		{ID: 3, Class: "", Server: -1, Arrival: 0.125}, // no spans, empty class, id goes backwards
		{ID: 8, Class: "read64K", Server: 0, Arrival: 7.25, Retries: 0,
			Spans: []Span{
				{Subsystem: CPU, Start: 7.25, Duration: 0, Op: OpRead, Bytes: 0, LBN: -9, Bank: -2, Util: math.SmallestNonzeroFloat64},
			}},
		{ID: 9, Class: "scan", Server: 1, Arrival: 7.5,
			Spans: []Span{
				{Subsystem: Memory, Start: 7.5, Duration: 0.25, Op: OpWrite, Bytes: 1, Util: 0},
			}},
	}}
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"corners": binaryTestTrace(),
		"empty":   {},
		"bench":   benchCodecTrace(),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("%s: WriteBinary: %v", name, err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadBinary: %v", name, err)
		}
		if len(got.Requests) != len(tr.Requests) {
			t.Fatalf("%s: round trip kept %d of %d requests", name, len(got.Requests), len(tr.Requests))
		}
		for i := range tr.Requests {
			if !reflect.DeepEqual(got.Requests[i], tr.Requests[i]) {
				t.Errorf("%s: request %d round-tripped to\n%+v\nwant\n%+v", name, i, got.Requests[i], tr.Requests[i])
			}
		}
	}
}

// TestBinaryMultiBlock pushes past the request flush threshold so the
// stream holds several blocks, including delta chains that reset per block.
func TestBinaryMultiBlock(t *testing.T) {
	tr := &Trace{Requests: make([]Request, 3*binaryBlockRequests+17)}
	for i := range tr.Requests {
		tr.Requests[i] = Request{
			ID: int64(i), Class: "c", Arrival: float64(i) / 100,
			Spans: []Span{{Subsystem: Subsystem(i % 4), Start: float64(i) / 100, Op: Op(i % 3), Bytes: int64(i)}},
		}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("multi-block round trip diverged (got %d requests, want %d)", len(got.Requests), len(tr.Requests))
	}
}

// TestBinaryCSVInterchange pins the interchange contract: CSV -> binary ->
// CSV is byte-identical, including traces parsed from the legacy 12-column
// layout (which re-emit in the current 14-column form, same as ReadCSV).
func TestBinaryCSVInterchange(t *testing.T) {
	var csv1 bytes.Buffer
	if err := WriteCSV(&csv1, binaryTestTrace()); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadCSV(bytes.NewReader(csv1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var csv2 bytes.Buffer
	if err := WriteCSV(&csv2, tr2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Fatalf("csv -> binary -> csv not byte-identical:\n%s\nvs\n%s", csv1.Bytes(), csv2.Bytes())
	}

	legacy := "req_id,class,server,arrival,subsystem,start,duration,op,bytes,lbn,bank,util\n" +
		"1,legacy,0,0.5,storage,0.5,0.001,read,4096,77,3,0.25\n" +
		"1,legacy,0,0.5,cpu,0.501,0.002,none,0,0,0,0.5\n"
	ltr, err := ReadCSV(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy parse: %v", err)
	}
	bin.Reset()
	if err := WriteBinary(&bin, ltr); err != nil {
		t.Fatal(err)
	}
	ltr2, err := ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ltr, ltr2) {
		t.Fatalf("legacy 12-col trace did not survive the binary round trip")
	}
	if ltr2.Requests[0].Retries != 0 || ltr2.Requests[0].FailedOver {
		t.Fatalf("legacy trace grew failure annotations: %+v", ltr2.Requests[0])
	}
}

// TestBinarySpanReaderStreaming exercises the SpanReader-mirroring
// contract: one request per Next, io.EOF at the clean end, sticky errors.
func TestBinarySpanReaderStreaming(t *testing.T) {
	tr := binaryTestTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d := NewBinarySpanReader(bytes.NewReader(buf.Bytes()))
	for i := range tr.Requests {
		req, err := d.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !reflect.DeepEqual(req, tr.Requests[i]) {
			t.Fatalf("Next %d: got %+v want %+v", i, req, tr.Requests[i])
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("Next after end: got %v, want io.EOF", err)
		}
	}

	// A truncated stream must yield a sticky non-EOF error.
	cut := buf.Bytes()[:buf.Len()-3]
	d = NewBinarySpanReader(bytes.NewReader(cut))
	var firstErr error
	for {
		_, err := d.Next()
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == io.EOF {
		t.Fatal("truncated stream decoded cleanly")
	}
	if _, err := d.Next(); err != firstErr {
		t.Fatalf("error not sticky: got %v then %v", firstErr, err)
	}
}

func TestBinaryRejectsMalformed(t *testing.T) {
	tr := binaryTestTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mut := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return mutate(b)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   mut(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version": mut(func(b []byte) []byte { b[4] = 99; return b }),
		"bad marker":  mut(func(b []byte) []byte { b[5] = 0x7f; return b }),
		"no end":      mut(func(b []byte) []byte { return b[:len(b)-1] }),
		"header only": []byte(binaryMagic + "\x01"),
		"huge block":  []byte(binaryMagic + "\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
		"zero block":  []byte(binaryMagic + "\x01\x01\x00"),
		"lying count": []byte(binaryMagic + "\x01\x01\x02\xff\x7f\x00"), // 2-byte block claiming 16383 requests
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: malformed stream decoded without error", name)
		}
	}

	// "header only" with nothing after it is truncation, but the header
	// followed by the end marker is a valid empty trace.
	got, err := ReadBinary(strings.NewReader(binaryMagic + "\x01\x00"))
	if err != nil || len(got.Requests) != 0 {
		t.Fatalf("empty stream: got %v, %v", got, err)
	}

	// Flipping any single payload byte must never panic; it may decode (a
	// float or counter changed) or error, both acceptable.
	for i := 5; i < len(valid); i++ {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x40
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d flip: panic %v", i, r)
				}
			}()
			ReadBinary(bytes.NewReader(b))
		}()
	}
}

// TestBinaryWriteRejectsInvalid: the 2-bit columns cannot represent
// out-of-range enums, so the writer must reject them like the CSV String()
// methods would on the way back in.
func TestBinaryWriteRejectsInvalid(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"subsystem": {Requests: []Request{{Spans: []Span{{Subsystem: 9}}}}},
		"op":        {Requests: []Request{{Spans: []Span{{Op: 5}}}}},
		"retries":   {Requests: []Request{{Retries: -1}}},
	} {
		if err := WriteBinary(io.Discard, tr); err == nil {
			t.Errorf("%s: invalid trace encoded without error", name)
		}
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	tr := benchCodecTrace()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteBinary(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBinary decodes the 1000-request codec trace with ReadBinary,
// and a body shaped like an ingest POST (500 requests of 6 spans) with a
// reader made for it (fresh, the daemon's path) and with one reader re-armed
// by Reuse (reuse, the cluster's path).
func BenchmarkReadBinary(b *testing.B) {
	tr := benchCodecTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Requests)), "ns/req")
	})

	const bodyRequests = 500
	body := encodeBinary(b, &Trace{Requests: tr.Requests[:bodyRequests]})
	rd := bytes.NewReader(nil)
	reused := NewBinarySpanReader(nil)
	for _, c := range []struct {
		name   string
		reader func() *BinarySpanReader
	}{
		{"fresh", func() *BinarySpanReader { return NewBinarySpanReader(rd) }},
		{"reuse", func() *BinarySpanReader { reused.Reuse(rd); return reused }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				if n := drainRequests(b, c.reader().Next); n != bodyRequests {
					b.Fatalf("decoded %d of %d requests", n, bodyRequests)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bodyRequests), "ns/req")
		})
	}
}

// encodeBinary is AppendBinary on a trace, failing the test on a refusal.
func encodeBinary(tb testing.TB, tr *Trace) []byte {
	tb.Helper()
	out, err := AppendBinary(nil, tr.Requests)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestBinaryReaderReuse: one reader taken through stream after stream by
// Reuse decodes each as a fresh reader does, whether the stream before it
// was short, long (several blocks), or broke off in the middle.
func TestBinaryReaderReuse(t *testing.T) {
	long := benchCodecTrace()
	for len(long.Requests) < 2*binaryBlockRequests+5 {
		long.Requests = append(long.Requests, long.Requests...)
	}
	a, b, multi := encodeBinary(t, binaryTestTrace()), encodeBinary(t, benchCodecTrace()), encodeBinary(t, long)
	streams := []struct {
		name string
		data []byte
	}{
		{"A", a}, {"B", b}, {"multi-block", multi}, {"A again", a},
		{"truncated", multi[:len(multi)/2]}, {"B after an error", b},
		{"bad magic", []byte("TCD2\x01\x00")}, {"multi-block after an error", multi}, {"empty", encodeBinary(t, &Trace{})}, {"B last", b},
	}
	d := NewBinarySpanReader(bytes.NewReader(nil))
	for _, s := range streams {
		want, wantErr := decodeAll(NewBinarySpanReader(bytes.NewReader(s.data)).Next, 1<<20)
		d.Reuse(bytes.NewReader(s.data))
		// Compared as they come: the next Reuse takes the spans back.
		for i := 0; ; i++ {
			got, err := d.Next()
			if err != nil {
				if i != len(want) {
					t.Fatalf("%s: %d requests before %v, a fresh reader %d before %v", s.name, i, err, len(want), wantErr)
				}
				if err != io.EOF && (wantErr == nil || err.Error() != wantErr.Error()) {
					t.Fatalf("%s: err = %v, a fresh reader %v", s.name, err, wantErr)
				}
				if _, again := d.Next(); again != err {
					t.Fatalf("%s: error not sticky: %v then %v", s.name, err, again)
				}
				break
			}
			if i >= len(want) || !sameRequest(&got, &want[i]) {
				t.Fatalf("%s: request %d differs from a fresh reader's", s.name, i)
			}
		}
	}
}

// TestBinaryReaderReuseAllocs: a reused reader decoding one 500-request body
// over and over allocates the class labels of the block and nothing that
// grows with the requests or their spans.
func TestBinaryReaderReuseAllocs(t *testing.T) {
	perBody := func(requests, spans int) float64 {
		tr := &Trace{}
		for i := 0; i < requests; i++ {
			tr.Requests = append(tr.Requests, Request{ID: int64(i), Class: [...]string{"get", "put", "scan"}[i%3], Arrival: float64(i), Spans: make([]Span, spans)})
		}
		data := encodeBinary(t, tr)
		d, rd := NewBinarySpanReader(nil), bytes.NewReader(nil)
		decode := func() {
			rd.Reset(data)
			d.Reuse(rd)
			if n := drainRequests(t, d.Next); n != requests {
				t.Fatalf("decoded %d of %d requests", n, requests)
			}
		}
		decode() // grows the scratch
		return testing.AllocsPerRun(20, decode)
	}
	small, large := perBody(50, 2), perBody(500, 9)
	if small != large || large > 3 {
		t.Errorf("allocations per body: %.0f for 50 requests of 2 spans, %.0f for 500 of 9; want the 3 class labels on both", small, large)
	}
}

// TestBinarySpanReaderAllocs: a reader made for each 500-request body, as
// the daemon's ingest makes one, allocates itself, the block's class labels
// and the block's span arena; its block buffers come back from the pool.
// Nothing else grows with the payload or the requests.
func TestBinarySpanReaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	// A collection between runs may empty the pool; none is needed here.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	classes := [...]string{"get", "put", "scan"}
	perBody := func(requests, spans int) float64 {
		tr := &Trace{}
		for i := 0; i < requests; i++ {
			tr.Requests = append(tr.Requests, Request{ID: int64(i), Class: classes[i%3], Arrival: float64(i), Spans: make([]Span, spans)})
		}
		data := encodeBinary(t, tr)
		rd := bytes.NewReader(nil)
		decode := func() {
			rd.Reset(data)
			if n := drainRequests(t, NewBinarySpanReader(rd).Next); n != requests {
				t.Fatalf("decoded %d of %d requests", n, requests)
			}
		}
		decode() // grows the pooled buffers
		return testing.AllocsPerRun(20, decode)
	}
	small, large := perBody(50, 2), perBody(500, 6)
	if want := float64(1 + len(classes) + 1); small != large || large > want {
		t.Errorf("allocations per body: %.0f for 50 requests of 2 spans, %.0f for 500 of 6; want at most %.0f (reader, %d class labels, span arena) on both",
			small, large, want, len(classes))
	}
}

// errorOrderStream wraps one hand-built block payload in a stream.
func errorOrderStream(payload ...[]byte) []byte {
	p := bytes.Join(payload, nil)
	out := append([]byte(binaryMagic), binaryVersion, markerBlock)
	out = binary.AppendUvarint(out, uint64(len(p)))
	return append(append(out, p...), markerEnd)
}

// TestBinaryDecodeErrorOrder: a column is decoded whole before it is
// checked, yet the first defect in stream order is the one reported, in the
// words and at the offset the request-at-a-time reader gave, and it sticks.
func TestBinaryDecodeErrorOrder(t *testing.T) {
	var (
		// Two requests of no spans, one class "a", IDs 0 and 1.
		head   = []byte{2, 0, 1, 1, 'a', 0, 2}
		zeros2 = []byte{0, 0}
		over   = bytes.Repeat([]byte{0xff}, 9) // nine continuation bytes
	)
	retriesOver := binary.AppendUvarint(nil, math.MaxInt32+1)
	// One request of one span; its counts, enums, start and duration.
	oneSpan := []byte{1, 1, 1, 1, 'a', 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}
	cases := []struct {
		name, data, want string
	}{
		{"class index before a truncated varint",
			string(errorOrderStream(head, []byte{5, 0x80})),
			"trace: class index 5 outside dictionary of 1"},
		{"retries out of range before a bad varint",
			string(errorOrderStream(head, zeros2, zeros2, zeros2, retriesOver, over, []byte{2}, zeros2, zeros2, zeros2)),
			"trace: retries 2147483648 out of range"},
		{"ten-byte varint ending above 1, mid payload",
			string(errorOrderStream(head, zeros2, zeros2, over, []byte{2}, zeros2, zeros2, zeros2, zeros2)),
			"trace: block offset 11: bad uvarint"},
		{"continuation bytes up to the payload end",
			string(errorOrderStream(head, zeros2, zeros2, over)),
			"trace: block offset 11: bad uvarint"},
		{"ten-byte varint ending in 1",
			string(errorOrderStream(head, zeros2, zeros2, []byte{0}, over, []byte{1}, zeros2, []byte{0}, zeros2)),
			""},
		{"bad varint in a signed span column",
			string(errorOrderStream(oneSpan, over, []byte{0x7f}, []byte{0, 0, 0})),
			"trace: block offset 16: bad varint"},
		{"truncated varint in a signed span column",
			string(errorOrderStream(oneSpan, []byte{0, 0x80, 0x80})),
			"trace: block offset 17: bad varint"},
	}
	reused := NewBinarySpanReader(nil)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := []byte(c.data)
			checkBinaryReaderMatchesOracle(t, data, reused)
			_, err := decodeAll(NewBinarySpanReader(bytes.NewReader(data)).Next, 10)
			if c.want == "" {
				if err != io.EOF {
					t.Fatalf("err = %v, want the stream accepted", err)
				}
				return
			}
			if err == nil || err.Error() != c.want {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}
