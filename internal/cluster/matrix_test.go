package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"testing"

	"dcmodel/internal/fault"
	"dcmodel/internal/trace"
)

// Kill schedules of TestClusterModelMatrix.
const (
	killNone        = "none"
	killBeforeMerge = "victim-before-merge"
	killAfterMerges = "victim-after-3-merges"
	killEveryWorker = "every-worker"
)

// matrixBodies are the request counts of the bodies a matrix cell ingests,
// in order: with routing chunks of a few hundred to a few thousand requests
// they are a body inside one chunk, a body of about one and a body spanning
// several.
var matrixBodies = []int{37, 500, 5000, 500, 37}

// postBody POSTs one encoded ingest body and checks the count ingested.
func postBody(t *testing.T, url, contentType string, body []byte, want int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	if out.Ingested != want {
		t.Fatalf("ingested %d of %d requests", out.Ingested, want)
	}
}

// postMerge runs one explicit merge+replicate cycle.
func postMerge(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/merge", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge status %d", resp.StatusCode)
	}
}

// killTimes returns, for the schedule the coordinator builds over n workers,
// a time at which exactly the first worker to fail is down and a time at
// which every worker is.
func killTimes(t *testing.T, fcfg *fault.Config, n int) (oneDown, allDown float64) {
	t.Helper()
	sched, err := fault.NewSchedule(fcfg.WithDefaults(), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	fails := make([]float64, n)
	for i := range fails {
		fails[i] = sched.NextFailure(i, 0)
	}
	sort.Float64s(fails)
	oneDown = fails[0] + 1e-3
	if n > 1 {
		oneDown = (fails[0] + fails[1]) / 2
	}
	allDown = fails[n-1] + 1e-3
	count := func(at float64) (down int) {
		for i := 0; i < n; i++ {
			if sched.DownAt(i, at) {
				down++
			}
		}
		return down
	}
	if got := count(oneDown); got != 1 {
		t.Fatalf("%d of %d workers down at t=%.3f, want 1", got, n, oneDown)
	}
	if got := count(allDown); got != n {
		t.Fatalf("%d of %d workers down at t=%.3f, want all", got, n, allDown)
	}
	return oneDown, allDown
}

// TestClusterModelMatrix pins the cluster's determinism and exactly-once
// contract over everything that decides how requests travel: the merged
// /v1/model bytes equal single-node training for every worker count, merge
// cadence, body codec and kill schedule, with bodies both smaller and larger
// than a routing chunk. The after-3-merges schedule is the one that kills a
// worker whose shard has already been through merges.
func TestClusterModelMatrix(t *testing.T) {
	total := 0
	for _, n := range matrixBodies {
		total += n
	}
	tr := testTrace(t, total, 31)
	want := modelBytes(t, DefaultModelConfig(), tr.Requests)

	type codec struct {
		name, contentType string
		bodies            [][]byte
	}
	codecs := []*codec{{name: "trace-v2", contentType: trace.ContentTypeV2}, {name: "csv", contentType: "text/csv"}}
	off := 0
	for _, n := range matrixBodies {
		part := &trace.Trace{Requests: tr.Requests[off : off+n]}
		off += n
		var v2 bytes.Buffer
		if err := trace.WriteBinary(&v2, part); err != nil {
			t.Fatal(err)
		}
		codecs[0].bodies = append(codecs[0].bodies, v2.Bytes())
		codecs[1].bodies = append(codecs[1].bodies, trace.AppendCSV(nil, part))
	}

	fcfg := &fault.Config{MTBF: 30, MTTR: 1e9, Seed: 1}
	for _, workers := range []int{1, 2, 3, 5, 8} {
		oneDown, allDown := killTimes(t, fcfg, workers)
		for _, mergeEvery := range []int{64, 4096, -1} {
			for _, cd := range codecs {
				for _, kill := range []string{killNone, killBeforeMerge, killAfterMerges, killEveryWorker} {
					name := fmt.Sprintf("workers=%d/merge=%d/%s/%s", workers, mergeEvery, cd.name, kill)
					t.Run(name, func(t *testing.T) {
						clock := &faultClock{}
						tc := startCluster(t, workers, func(cfg *CoordinatorConfig) {
							cfg.MergeEvery = mergeEvery
							cfg.Faults = fcfg
							cfg.FaultClock = clock.now
						})
						for i, body := range cd.bodies {
							postBody(t, tc.front.URL, cd.contentType, body, matrixBodies[i])
							switch {
							case kill == killBeforeMerge && i == 0:
								// 37 requests are under every cadence: no
								// merge has run yet.
								if g := tc.coord.Generation(); g != 0 {
									t.Fatalf("generation %d before the kill, want 0", g)
								}
								clock.set(oneDown)
							case kill == killAfterMerges && i < 3:
								postMerge(t, tc.front.URL)
							case kill == killAfterMerges && i == 3:
								// The fourth body is the suffix routed since
								// the last explicit merge.
								if g := tc.coord.Generation(); g < 3 {
									t.Fatalf("generation %d before the kill, want >= 3", g)
								}
								clock.set(oneDown)
							case kill == killEveryWorker && i == 2:
								clock.set(allDown)
							}
						}
						if got := mergedModel(t, tc.front.URL); !bytes.Equal(got, want) {
							t.Fatal("cluster-merged model differs from single-node training")
						}
						wantUp := workers
						switch kill {
						case killBeforeMerge, killAfterMerges:
							wantUp = workers - 1
						case killEveryWorker:
							wantUp = 0
						}
						if got := tc.coord.WorkersUp(); got != wantUp {
							t.Fatalf("workers up = %d, want %d", got, wantUp)
						}
					})
				}
			}
		}
	}
}
