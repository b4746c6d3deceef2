package trace

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"testing"
)

// benchCodecTrace builds a 1000-request trace with the Figure 1 span
// structure, the shape the CSV codec serializes in the CLI pipelines.
func benchCodecTrace() *Trace {
	r := rand.New(rand.NewSource(1))
	t := &Trace{Requests: make([]Request, 1000)}
	subs := []Subsystem{Network, CPU, Memory, Storage, CPU, Network}
	now := 0.0
	for i := range t.Requests {
		now += r.ExpFloat64() / 50
		req := Request{ID: int64(i), Class: "read64K", Server: i % 4, Arrival: now}
		start := now
		for _, sub := range subs {
			d := r.Float64() * 1e-3
			req.Spans = append(req.Spans, Span{
				Subsystem: sub, Start: start, Duration: d,
				Op: OpRead, Bytes: 64 << 10, LBN: int64(r.Intn(1 << 20)), Bank: i % 8,
				Util: r.Float64(),
			})
			start += d
		}
		t.Requests[i] = req
	}
	return t
}

func BenchmarkWriteCSV(b *testing.B) {
	tr := benchCodecTrace()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteCSV(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJSON(b *testing.B) {
	tr := benchCodecTrace()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteJSON(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendCSV(b *testing.B) {
	tr := benchCodecTrace()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendCSV(buf[:0], tr)
	}
}

func BenchmarkAppendJSON(b *testing.B) {
	tr := benchCodecTrace()
	var buf []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = AppendJSON(buf[:0], tr); err != nil {
			b.Fatal(err)
		}
	}
}

// checkWriteAllocs: a text writer allocates its scratch slice and little
// else, whatever the length of the trace (the encoding/csv writer this
// replaced made 50 902 allocations for the 1000-request trace).
func checkWriteAllocs(t *testing.T, write func(io.Writer, *Trace) error) {
	short := benchCodecTrace()
	long := &Trace{Requests: append(append([]Request{}, short.Requests...), short.Requests...)}
	var buf bytes.Buffer
	for _, tr := range []*Trace{short, long} {
		allocs := testing.AllocsPerRun(20, func() {
			buf.Reset()
			if err := write(&buf, tr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("%d requests: %.0f allocations, want <= 32", tr.Len(), allocs)
		}
	}
}

func TestWriteCSVAllocs(t *testing.T)  { checkWriteAllocs(t, WriteCSV) }
func TestWriteJSONAllocs(t *testing.T) { checkWriteAllocs(t, WriteJSON) }

func BenchmarkReadCSV(b *testing.B) {
	tr := benchCodecTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSpanReaderInput is n requests of the mapreduce preset as WriteCSV
// sends them: the eight requests of the preset's golden trace, repeated with
// fresh ids and later arrivals.
func benchSpanReaderInput(tb testing.TB, n int) []byte {
	tb.Helper()
	data, err := os.ReadFile("../spec/testdata/mapreduce.golden.csv")
	if err != nil {
		tb.Fatal(err)
	}
	golden, err := ReadCSV(bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	period := golden.Requests[golden.Len()-1].Arrival + 0.125
	tr := &Trace{Requests: make([]Request, n)}
	for i := range tr.Requests {
		r := golden.Requests[i%golden.Len()]
		shift := float64(i/golden.Len()) * period
		r.ID = int64(i)
		r.Arrival += shift
		r.Spans = append([]Span(nil), r.Spans...)
		for j := range r.Spans {
			r.Spans[j].Start += shift
		}
		tr.Requests[i] = r
	}
	return AppendCSV(nil, tr)
}

// drainRequests decodes to the end and returns the request count.
func drainRequests(tb testing.TB, next func() (Request, error)) int {
	for n := 0; ; n++ {
		if _, err := next(); err == io.EOF {
			return n
		} else if err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSpanReader decodes 5000 mapreduce requests with the byte-level
// reader and, for the ratio, with the encoding/csv-based one it replaced.
func BenchmarkSpanReader(b *testing.B) {
	const requests = 5000
	data := benchSpanReaderInput(b, requests)
	readers := map[string]func(io.Reader) func() (Request, error){
		"bytes":        func(r io.Reader) func() (Request, error) { return NewSpanReader(r).Next },
		"encoding-csv": func(r io.Reader) func() (Request, error) { return newOracleSpanReader(r).Next },
	}
	for name, open := range readers {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n := drainRequests(b, open(bytes.NewReader(data))); n != requests {
					b.Fatalf("decoded %d requests, want %d", n, requests)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/requests, "ns/req")
		})
	}
}

// TestSpanReaderAllocs: decoding allocates the read buffer, the scratch
// slices and a chunk of spans now and then — under one allocation per
// request, whatever the length of the trace (the encoding/csv reader made
// one per row and regrew a span slice per request).
func TestSpanReaderAllocs(t *testing.T) {
	for _, requests := range []int{500, 5000} {
		data := benchSpanReaderInput(t, requests)
		allocs := testing.AllocsPerRun(10, func() { drainRequests(t, NewSpanReader(bytes.NewReader(data)).Next) })
		if perReq := allocs / float64(requests); perReq > 1 {
			t.Errorf("%d requests: %.0f allocations, %.2f per request, want <= 1", requests, allocs, perReq)
		} else {
			t.Logf("%d requests: %.0f allocations, %.3f per request", requests, allocs, perReq)
		}
	}
}
