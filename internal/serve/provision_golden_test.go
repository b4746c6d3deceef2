package serve

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"dcmodel/internal/spec"
)

var updateProvision = flag.Bool("update-provision", false, "regenerate testdata/provision_digests.golden")

// wideProvisionBody searches both platforms, three DVFS states and up to two
// replicas, with the DES budgets of provisionBody.
const wideProvisionBody = `{"request":{"objective":{"target_seconds":0.2},"space":{"max_servers":16,"platforms":["big-core","small-core"],"dvfs_states":["P0","P1","P2"],"max_replicas":2},"validate_tasks":2000,"validate_samples":2000}}`

// TestProvisionAnswerDigestsGolden pins what /v1/provision answers on each
// preset's 4096-request window, for a single-platform and a wide space, by
// status and sha256 of the body.
func TestProvisionAnswerDigestsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, name := range spec.Names() {
		s := newTestServer(t, quietConfig())
		if _, _, err := s.Ingest(presetWindow(t, name, 4096, 1)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ts := httptest.NewServer(s.Handler())
		for i, body := range []string{provisionBody, wideProvisionBody} {
			resp, answer := postProvision(t, ts, body)
			fmt.Fprintf(&out, "%s body=%d %d %x\n", name, i, resp.StatusCode, sha256.Sum256(answer))
		}
		ts.Close()
	}
	golden := filepath.Join("testdata", "provision_digests.golden")
	if *updateProvision {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run TestProvisionAnswerDigestsGolden -update-provision` to create it)", err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("provision answers drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
