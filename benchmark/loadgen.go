package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loadConns is the most connections of load any workload opens. It equals
// the core count of the sandbox the workloads were sized on: client and
// servers share one process, so more connections than cores would measure
// the load generator queueing behind itself.
const loadConns = 2

// conn is one load connection: a client that keeps a single persistent
// connection to the server, so a goroutine of load is a connection of load.
type conn struct {
	client    *http.Client
	transport *http.Transport
}

func newConn() *conn {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: t, Timeout: 60 * time.Second}, transport: t}
}

func (c *conn) close() { c.transport.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *conn) do(method, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// postRetrying is do for POSTs that may be refused with 429: backpressure is
// retried a bounded number of times after a short pause, as cmd/loadgen does;
// a 429 that outlasts the retries is the caller's failure to count.
func (c *conn) postRetrying(url, contentType string, body []byte) (int, []byte, error) {
	const retries = 5
	for attempt := 0; ; attempt++ {
		code, b, err := c.do(http.MethodPost, url, contentType, body)
		if err != nil || code != http.StatusTooManyRequests || attempt == retries {
			return code, b, err
		}
		time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
	}
}

// sample is one timed operation; times are offsets from the start of the
// drive that issued it. An open-loop operation is due on its schedule; a
// closed-loop one is due the moment its connection is free.
type sample struct {
	index           int
	due, start, end time.Duration
}

// latencyMs is measured from the due time, so the wait a stall imposes on
// the operations scheduled behind it counts.
func (s sample) latencyMs() float64 { return float64(s.end-s.due) / 1e6 }

// lagMs is how late the generator sent the operation.
func (s sample) lagMs() float64 { return float64(s.start-s.due) / 1e6 }

// driven is what one drive measured.
type driven struct {
	t0       time.Time
	samples  []sample // successful operations, in no particular order
	failed   int
	firstErr error
	elapsed  time.Duration
}

func (d *driven) latencies() []float64 {
	out := make([]float64, len(d.samples))
	for i, s := range d.samples {
		out[i] = s.latencyMs()
	}
	return out
}

func (d *driven) lags() []float64 {
	out := make([]float64, len(d.samples))
	for i, s := range d.samples {
		out[i] = s.lagMs()
	}
	return out
}

// drive runs conns goroutines of load, each on its own connection. The
// goroutines claim operation indices 0, 1, 2, ... from one shared counter.
// With rate > 0 the loop is open: operation i is due at i/rate seconds and a
// goroutine sleeps until then before sending, so a stall shows as latency of
// the operations behind it, never as a lower send rate. With rate == 0 the
// loop is closed: the next operation is sent when the previous one on that
// connection completes. more is asked before each operation, with the index
// and its due offset; the drive ends when it says no. op performs operation
// i; an error counts the operation as failed and the drive goes on.
func drive(conns int, rate float64, more func(i int, due time.Duration) bool, op func(c *conn, i int) error) *driven {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  driven
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn()
			defer c.close()
			var mine []sample
			var failed int
			var firstErr error
			for {
				i := int(next.Add(1) - 1)
				due := time.Since(t0)
				if rate > 0 {
					due = time.Duration(float64(i) / rate * float64(time.Second))
				}
				if !more(i, due) {
					break
				}
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(t0)
				if err := op(c, i); err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("operation %d: %w", i, err)
					}
					continue
				}
				mine = append(mine, sample{index: i, due: due, start: start, end: time.Since(t0)})
			}
			mu.Lock()
			out.samples = append(out.samples, mine...)
			out.failed += failed
			if out.firstErr == nil {
				out.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.t0, out.elapsed = t0, time.Since(t0)
	return &out
}
