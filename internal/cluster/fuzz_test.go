package cluster

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"dcmodel/internal/trace"
)

// FuzzCoordinatorIngest feeds arbitrary bodies, as trace-v2 or as CSV, to a
// coordinator whose three workers it calls in process. Whatever the body,
// the answer is 200 or 400, nothing panics on either side of the hop, and
// every worker is still up afterwards: a body the coordinator forwards is
// one each worker takes.
func FuzzCoordinatorIngest(f *testing.F) {
	reqs := testTrace(f, 20, 73).Requests
	valid, err := trace.AppendBinary(nil, reqs)
	if err != nil {
		f.Fatal(err)
	}
	var csv bytes.Buffer
	if err := trace.WriteCSV(&csv, &trace.Trace{Requests: reqs}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid, true)
	f.Add(csv.Bytes(), false)
	f.Add(nanBody(f, func(sp *trace.Span) { sp.Util = math.NaN() }), true)
	f.Add(nanBody(f, func(sp *trace.Span) { sp.Duration = math.NaN() }), true)
	f.Add(valid[:len(valid)/2], true)
	// Three blocks of 20: whole, with a NaN in block 2, cut inside block 2.
	three := testTrace(f, 60, 97).Requests
	f.Add(blockBody(f, three, 20), true)
	poisoned := append([]trace.Request{}, three...)
	poisoned[30].Spans = append([]trace.Span{}, poisoned[30].Spans...)
	poisoned[30].Spans[0].Util = math.NaN()
	f.Add(blockBody(f, poisoned, 20), true)
	body := blockBody(f, three, 20)
	blocks := bodyBlocks(f, body)
	f.Add(body[:len(trace.BinaryStreamHeader)+len(blocks[0].frame)+len(blocks[1].frame)/2], true)

	transport := handlerTransport{}
	var urls []string
	for i := 0; i < 3; i++ {
		w, err := NewWorker(WorkerConfig{})
		if err != nil {
			f.Fatal(err)
		}
		host := fmt.Sprintf("worker%d", i)
		transport[host] = w.Handler()
		urls = append(urls, "http://"+host)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, Client: &http.Client{Transport: transport}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, binary bool) {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		if binary {
			req.Header.Set("Content-Type", trace.ContentTypeV2)
		}
		rr := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rr, req)
		if rr.Code != http.StatusOK && rr.Code != http.StatusBadRequest {
			t.Fatalf("status %d (%s), want 200 or 400", rr.Code, rr.Body)
		}
		if up := coord.WorkersUp(); up != len(urls) {
			t.Fatalf("%d of %d workers up after a %d answer (%s)", up, len(urls), rr.Code, rr.Body)
		}
	})
}
