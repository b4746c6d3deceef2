package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"dcmodel/internal/trace"
)

// handlerTransport answers a coordinator's worker RPCs by calling the
// worker's handler in process: the hop without its sockets.
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no worker %q", r.URL.Host)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, r)
	return rr.Result(), nil
}

// BenchmarkCoordinatorIngest is the coordinator -> worker hop under `go test
// -bench`: one 500-request webtier trace-v2 body after another through a
// coordinator with three workers, automatic merges at the default cadence
// included. The workers are called in process, and over loopback sockets in
// the sockets sub-benchmark, where the three POSTs of a body overlap. Per
// request of the body: ns/req, B/req and allocs/req, the last two counted
// over the whole process, workers included.
func BenchmarkCoordinatorIngest(b *testing.B) {
	const requests = 500
	body, err := trace.AppendBinary(nil, testTrace(b, requests, 7).Requests)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, post func() int) {
		post() // grows the recycled scratch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := post(); code != http.StatusOK {
				b.Fatalf("ingest status %d", code)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N) * requests
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/req")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/req")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/req")
	}

	b.Run("in-process", func(b *testing.B) {
		transport := handlerTransport{}
		var urls []string
		for i := 0; i < 3; i++ {
			w, err := NewWorker(WorkerConfig{})
			if err != nil {
				b.Fatal(err)
			}
			host := fmt.Sprintf("worker%d", i)
			transport[host] = w.Handler()
			urls = append(urls, "http://"+host)
		}
		coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, Client: &http.Client{Transport: transport}})
		if err != nil {
			b.Fatal(err)
		}
		run(b, func() int {
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
			req.Header.Set("Content-Type", trace.ContentTypeV2)
			rr := httptest.NewRecorder()
			coord.Handler().ServeHTTP(rr, req)
			return rr.Code
		})
	})

	b.Run("sockets", func(b *testing.B) {
		var urls []string
		for i := 0; i < 3; i++ {
			w, err := NewWorker(WorkerConfig{})
			if err != nil {
				b.Fatal(err)
			}
			srv := httptest.NewServer(w.Handler())
			defer srv.Close()
			urls = append(urls, srv.URL)
		}
		coord, err := NewCoordinator(CoordinatorConfig{Workers: urls})
		if err != nil {
			b.Fatal(err)
		}
		front := httptest.NewServer(coord.Handler())
		defer front.Close()
		run(b, func() int {
			resp, err := http.Post(front.URL+"/v1/ingest", trace.ContentTypeV2, bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode
		})
	})
}
