package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcmodel/internal/fault"
	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

var updateAnswers = flag.Bool("update-answers", false, "regenerate testdata/answers.golden")

// presetWindow is the trace of requests requests a preset compiles to at seed.
func presetWindow(t *testing.T, name string, requests int, seed int64) *trace.Trace {
	t.Helper()
	preset, err := spec.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := preset.Compile(spec.Options{Requests: requests, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := compiled.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// withoutWallClock re-encodes a characterize answer with its one wall-clock
// figure, each approach's synthesis throughput, set to zero.
func withoutWallClock(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp characterizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("characterize answer %q: %v", body, err)
	}
	for i := range resp.Scores {
		resp.Scores[i].Scalability = 0
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// answersScenario is the fault scenario TestComparisonAnswersGolden replays
// under once the healthy answers are recorded.
var answersScenario = fault.Config{MTBF: 0.05, MTTR: 0.02, Seed: 9}

// TestComparisonAnswersGolden pins what the daemon answers from KOOZA and
// from its in-breadth and in-depth comparison models, one 8192-request
// window per preset: synthesized bytes in every format, replayed on healthy
// hardware and under answersScenario, the what-if answer, the characterize
// scorecard less its wall-clock column and the provision answer, each by
// status and sha256. Every answer is asked for twice, and the second ask — a
// memo hit wherever the daemon keeps the answer — must return the first's
// bytes. The answers are pure functions of the window and the daemon's
// options, so however the models come to be trained and whatever the daemon
// keeps between queries, the file must not change.
func TestComparisonAnswersGolden(t *testing.T) {
	var out bytes.Buffer
	for _, name := range spec.Names() {
		s := newTestServer(t, quietConfig())
		if _, _, err := s.Ingest(presetWindow(t, name, 8192, 1)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ts := httptest.NewServer(s.Handler())
		record := func(what string, code int, body []byte) {
			fmt.Fprintf(&out, "%s %s %d %x\n", name, what, code, sha256.Sum256(body))
		}
		// twice asks twice and returns the first answer, once the second is
		// found to be the same bytes.
		twice := func(what string, ask func() (int, []byte)) (int, []byte) {
			code, body := ask()
			if again, repeat := ask(); again != code || !bytes.Equal(repeat, body) {
				t.Errorf("%s %s: the second ask answered %d and other bytes than the first (%d)", name, what, again, code)
			}
			return code, body
		}
		synthesize := func(what, model, query string) {
			what += "?model=" + model + "&" + query
			code, body := twice(what, func() (int, []byte) {
				return get(t, fmt.Sprintf("%s/v1/synthesize?n=500&seed=3&model=%s&%s", ts.URL, model, query))
			})
			record(what, code, body)
		}
		models := []string{"inbreadth", "indepth", "kooza"}
		for _, model := range models {
			for _, query := range []string{"format=csv", "format=json", "format=binary",
				"format=csv&replay=1", "format=json&replay=1", "format=binary&replay=1"} {
				synthesize("synthesize", model, query)
			}
			what := "whatif?model=" + model
			code, body := twice(what, func() (int, []byte) {
				resp, body := postWhatIf(t, ts, fmt.Sprintf(`{"model":%q,"query":{"load_factor":1.5}}`, model))
				return resp.StatusCode, body
			})
			record(what, code, body)
		}
		code, body := twice("characterize", func() (int, []byte) { return get(t, ts.URL+"/v1/characterize?n=300&seed=3") })
		record("characterize", code, withoutWallClock(t, body))
		code, body = twice("provision", func() (int, []byte) {
			resp, body := postProvision(t, ts, provisionBody)
			return resp.StatusCode, body
		})
		record("provision", code, body)
		if err := s.ArmFaults(answersScenario); err != nil {
			t.Fatal(err)
		}
		for _, model := range models {
			for _, format := range []string{"csv", "json", "binary"} {
				synthesize("faulted synthesize", model, "format="+format+"&replay=1")
			}
		}
		ts.Close()
	}
	golden := filepath.Join("testdata", "answers.golden")
	if *updateAnswers {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run ComparisonAnswersGolden -update-answers` to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("answers drifted from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("answers drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
