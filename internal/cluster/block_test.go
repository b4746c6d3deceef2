package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"sync"
	"testing"

	"dcmodel/internal/trace"
)

// recordingHosts is a RoundTripper that keeps, by worker index, the body of
// every ingest POST a worker is sent, and sends each on.
type recordingHosts struct {
	mu    sync.Mutex
	index map[string]int // URL host -> worker index
	sent  map[int][][]byte
}

func (rh *recordingHosts) RoundTrip(r *http.Request) (*http.Response, error) {
	if w, ok := rh.index[r.URL.Host]; ok && r.URL.Path == "/v1/ingest" {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		rh.mu.Lock()
		rh.sent[w] = append(rh.sent[w], body)
		rh.mu.Unlock()
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestBlocksRouteWhole pins the ingest hop's block contract: each trace-v2
// block of a body goes whole, as the client's bytes, exactly once, to the
// ring owner of its key; an owner gets one stream a routing round, its
// blocks in body order; a body of several blocks reaches several owners;
// and each worker's log holds exactly the blocks it was sent.
func TestBlocksRouteWhole(t *testing.T) {
	tr := testTrace(t, 7000, 79)
	rec := &recordingHosts{index: map[string]int{}, sent: map[int][][]byte{}}
	tc := startCluster(t, 3, func(cfg *CoordinatorConfig) {
		for i, raw := range cfg.Workers {
			u, err := url.Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			rec.index[u.Host] = i
		}
		cfg.Client = &http.Client{Transport: rec}
		cfg.MergeEvery = -1
	})
	// Twenty blocks of 100 requests, one round; then the writer's own five
	// blocks of up to 1024, two rounds.
	small := blockBody(t, tr.Requests[:2000], 100)
	large, err := trace.AppendBinary(nil, tr.Requests[2000:])
	if err != nil {
		t.Fatal(err)
	}
	var rounds [][]block
	for _, body := range [][]byte{small, large} {
		if code, got := ingestRaw(t, tc.front.URL, trace.ContentTypeV2, body); code != 200 || got.Routed != got.Ingested {
			t.Fatalf("ingest: status %d, %+v", code, got)
		}
		pending := 0
		rounds = append(rounds, nil)
		for _, b := range bodyBlocks(t, body) {
			if pending > 0 && pending+b.n > routeBatchSize {
				rounds, pending = append(rounds, nil), 0
			}
			rounds[len(rounds)-1] = append(rounds[len(rounds)-1], b)
			pending += b.n
		}
	}
	if len(rounds) != 3 {
		t.Fatalf("%d routing rounds, want 3 (the test's bodies changed)", len(rounds))
	}
	if got := owners(tc.coord.ring, rounds[0]); len(got) < 2 {
		t.Fatalf("a body of %d blocks reaches owners %v, want at least two", len(rounds[0]), got)
	}

	tc.coord.routeMu.Lock()
	defer tc.coord.routeMu.Unlock()
	received, blocks := 0, 0
	for w, m := range tc.coord.members {
		// Each round the worker owns a block of is one stream of exactly
		// those blocks, in body order.
		var want [][]byte
		var logged []byte
		for _, round := range rounds {
			stream := []byte(trace.BinaryStreamHeader)
			for _, b := range round {
				if tc.coord.ring.Owner(b.key) == w {
					stream = append(stream, b.frame...)
					logged = append(logged, b.frame...)
				}
			}
			if len(stream) > len(trace.BinaryStreamHeader) {
				want = append(want, append(stream, trace.BinaryStreamEnd...))
			}
		}
		got := rec.sent[w]
		if len(got) != len(want) {
			t.Fatalf("worker %d was sent %d streams, want %d", w, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("worker %d: stream %d is not the client's bytes of the blocks it owns", w, i)
			}
			received += len(bodyBlocks(t, got[i]))
		}
		var log []byte
		n := 0
		for _, b := range m.log {
			log = append(log, b.frame...)
			n += b.n
		}
		if !bytes.Equal(log, logged) || n != m.logged {
			t.Errorf("worker %d: the log holds %d bytes of %d requests (counted %d), not the %d bytes it was sent", w, len(log), n, m.logged, len(logged))
		}
	}
	for _, round := range rounds {
		blocks += len(round)
	}
	if received != blocks {
		t.Errorf("the workers received %d blocks, the bodies hold %d", received, blocks)
	}
}
