package trace

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSpanReaderMatchesReadCSV streams a round-tripped trace request by
// request and checks it reproduces exactly what the batch reader sees.
func TestSpanReaderMatchesReadCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	encoded := buf.String()

	batch, err := ReadCSV(strings.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	d := NewSpanReader(strings.NewReader(encoded))
	var streamed Trace
	for {
		req, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		streamed.Requests = append(streamed.Requests, req)
	}
	if !reflect.DeepEqual(batch, &streamed) {
		t.Fatalf("stream decode diverges from batch decode:\nbatch:  %+v\nstream: %+v", batch, &streamed)
	}
	// Exhausted reader keeps returning io.EOF.
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next() = %v, want io.EOF", err)
	}
}

// TestSpanReaderEmitsIncrementally checks a request is surfaced as soon as
// its last row has been read, without waiting for the stream to end — the
// property the ingestion endpoint relies on.
func TestSpanReaderEmitsIncrementally(t *testing.T) {
	header := "req_id,class,server,arrival,subsystem,start,duration,op,bytes,lbn,bank,util\n"
	first := "1,a,0,0.5,network,0.5,0,none,64,0,0,0\n1,a,0,0.5,cpu,0.6,0,none,0,0,0,0.5\n"
	second := "2,b,0,1.5,storage,1.5,0,read,4096,77,0,0\n"

	pr, pw := io.Pipe()
	d := NewSpanReader(pr)
	firstDone := make(chan struct{})
	go func() {
		pw.Write([]byte(header + first + second))
		// Close only after the first request has been decoded, proving it
		// was emitted while the stream was still open.
		<-firstDone
		pw.Close()
	}()
	req, err := d.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if req.ID != 1 || req.Class != "a" || len(req.Spans) != 2 {
		t.Fatalf("first request = %+v", req)
	}
	close(firstDone)
	req, err = d.Next()
	if err != nil {
		t.Fatalf("Next after close: %v", err)
	}
	if req.ID != 2 || req.Class != "b" || len(req.Spans) != 1 || req.Spans[0].LBN != 77 {
		t.Fatalf("second request = %+v", req)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

// TestSpanReaderRejectsMalformed checks malformed, truncated and oversized
// inputs surface as sticky errors, never panics.
func TestSpanReaderRejectsMalformed(t *testing.T) {
	header := "req_id,class,server,arrival,subsystem,start,duration,op,bytes,lbn,bank,util\n"
	cases := map[string]string{
		"empty":            "",
		"bad header":       "nope\n",
		"short header":     "req_id,class\n",
		"bad id":           header + "x,a,0,0,network,0,0,none,0,0,0,0\n",
		"bad server":       header + "1,a,x,0,network,0,0,none,0,0,0,0\n",
		"bad arrival":      header + "1,a,0,x,network,0,0,none,0,0,0,0\n",
		"bad subsystem":    header + "1,a,0,0,quantum,0,0,none,0,0,0,0\n",
		"bad op":           header + "1,a,0,0,storage,0,0,transmute,0,0,0,0\n",
		"bad bytes":        header + "1,a,0,0,storage,0,0,read,x,0,0,0\n",
		"truncated row":    header + "1,a,0,0,storage,0\n",
		"oversized field":  header + "1," + strings.Repeat("z", maxCSVFieldBytes+1) + ",0,0,network,0,0,none,0,0,0,0\n",
		"bare quote":       header + "1,\"a,0,0,network,0,0,none,0,0,0,0\n",
		"truncated stream": header + "1,a,0,0,network,0,0,none,0,0",
	}
	for name, input := range cases {
		d := NewSpanReader(strings.NewReader(input))
		var err error
		for err == nil {
			_, err = d.Next()
		}
		if err == io.EOF {
			t.Errorf("%s: accepted cleanly, want a decode error", name)
		}
		// Sticky: the same error again, no panic.
		_, again := d.Next()
		if again != err {
			t.Errorf("%s: error not sticky: first %v then %v", name, err, again)
		}
	}
}

// TestSpanReaderSpanCap checks the per-request span bound trips instead of
// growing without limit.
func TestSpanReaderSpanCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a large synthetic stream")
	}
	var buf bytes.Buffer
	buf.WriteString("req_id,class,server,arrival,subsystem,start,duration,op,bytes,lbn,bank,util\n")
	row := "1,a,0,0,network,0,0,none,0,0,0,0\n"
	for i := 0; i <= maxSpansPerRequest; i++ {
		buf.WriteString(row)
	}
	d := NewSpanReader(&buf)
	_, err := d.Next()
	if err == nil || err == io.EOF {
		t.Fatalf("span-cap overflow not rejected: %v", err)
	}
	if !strings.Contains(err.Error(), "spans") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// spanReaderSeeds are inputs on either side of everything the CSV reader
// branches on; FuzzSpanReader starts from them and from the preset goldens.
func spanReaderSeeds() []string {
	var sample bytes.Buffer
	if err := WriteCSV(&sample, oracleTrace()); err != nil {
		panic(err)
	}
	legacy := "req_id,class,server,arrival,subsystem,start,duration,op,bytes,lbn,bank,util\n"
	header := csvHeaderLine
	row := "1,c,0,0,network,0,0,none,0,0,0,0,0,0\n"
	long := strings.Repeat("0", 60_000)
	return []string{
		sample.String(),
		"",
		legacy,
		legacy + "1,c,0,0,network,0,0,none,0,0,0,0\n",
		legacy + "1,c,0,0,network,0,0,none,0,0,0,0\n2,c,0,1,cpu,1,0,none,0,0,0,0.25\n",
		legacy + "1,c,0,0,,,,,,,,\n",
		legacy + "1,c,0,0,network,0,0,none,0,0",
		legacy + "9223372036854775807,c,0,1e308,storage,0,0,write,1,1,1,1\n",
		"garbage\nmore garbage",
		// A class quoted for its comma, its quote and its line break, then a
		// request whose rows differ in everything but the id.
		header + "1,\"a,b \"\"c\"\"\nd\",0,0.5,network,0.5,0,none,64,0,0,0,2,1\n1,\"a,b \"\"c\"\"\nd\",0,0.5,cpu,0.6,0,none,0,0,0,0.5,2,1\n" +
			"2,x,1,1.5,storage,1.5,0.25,read,4096,77,3,0,0,0\n02,y,9,nope,memory,1.75,1e-3,write,64,0,5,0.5,,\n",
		"\"req_id\",class,server,arrival,subsystem,start,duration,op,bytes,lbn,bank,util,retries,\"failover\"\n" + row,
		strings.ReplaceAll(header+row+"2,d,1,1,cpu,1,0.5,none,0,0,0,0.75,1,true\n", "\n", "\r\n"),
		header + row + "2,d,1,1,cpu,1,0.5,none,0,0,0,0.75,0,0\r",
		"\n\r\n" + header + "\n\n" + row + "\r\n\n" + "2,d,1,1,,,,,,,,,0,0\n\n",
		header + row + "2,d,1,1,cpu,1\n",
		header + row + "2,d,1,1,cpu,1,0.5,none,0,0,0,0.75,0,0,extra\n",
		header + row + "2,d\"e,1,1,cpu,1,0.5,none,0,0,0,0.75,0,0\n",
		header + row + "2,\"d\"e,1,1,cpu,1,0.5,none,0,0,0,0.75,0,0\n",
		header + row + "2,\"d,1,1,cpu,1,0.5,none,0,0,0,0.75,0,0\n",
		header + row + "2,d,1,1,cpu,1,0.5,none,0,0,0,0.75,x,0\n",
		header + row + "2,d,1,1,cpu,1,0.5,none,0,0,0,0.75,0,maybe\n",
		header + row + "2,d,1,1,cpu,+1,.5,none,-0,0_0,0,0x1p-2,0,T\n",
		header + row + "2," + strings.Repeat("z", 70_000) + ",1,1,cpu,1,0.5,none,0,0,0,0.75,0,0\n",
		header + row + "2,\"" + strings.Repeat("z\n", 35_000) + "\",1,1,cpu,1,0.5,none,0,0,0,0.75,0,0\n",
		// A row longer than the read buffer, every field within the limit.
		header + row + long + "2," + long + ",1,1,cpu,1,0.5,none,0,0,0,0.75,0,0\n3,e,0,2,,,,,,,,,0,0\n",
	}
}

// FuzzSpanReader is the differential target of the CSV reader: whatever the
// bytes, SpanReader and the encoding/csv-based reader it replaced agree (see
// checkSpanReaderMatchesOracle), fresh and reused, and neither panics.
func FuzzSpanReader(f *testing.F) {
	for _, seed := range spanReaderSeeds() {
		f.Add(seed)
	}
	for _, name := range presetGoldens(f) {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	reused := NewSpanReader(nil)
	f.Fuzz(func(t *testing.T, input string) {
		checkSpanReaderMatchesOracle(t, input, reused)
	})
}

// TestSpanReaderReuseAcrossStreams: one reader re-armed with Reuse on every
// seed cut short at several places, so that most runs follow a stream that
// ended mid-request or failed mid-stream, decodes each to the oracle's
// requests and error (see checkSpanReaderMatchesOracle).
func TestSpanReaderReuseAcrossStreams(t *testing.T) {
	reused := NewSpanReader(nil)
	for _, seed := range spanReaderSeeds() {
		for _, cut := range []int{len(seed), len(seed) / 3, len(seed) / 2, len(seed) - 1, 2 * len(seed) / 3} {
			checkSpanReaderMatchesOracle(t, seed[:max(cut, 0)], reused)
		}
	}
}
