package dcmodel

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcmodel/internal/spec"
)

// TestOfflineTablesDigest pins the paper's two tables bit for bit: for
// every preset at seeds 1-3 it hashes the Table 1 scorecard
// (CrossExamine), the Table 2 rows, their rendering and the model Validate
// trained. The golden file was generated before the offline pipeline was
// spread across goroutines; scheduling must not move one digest, so run it
// under -cpu 1,2 as well.
func TestOfflineTablesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and replays 18 traces of 5000 requests")
	}
	const requests = 5000
	p := DefaultPlatform()
	var b strings.Builder
	hash := func(key, part string, data []byte) {
		fmt.Fprintf(&b, "%s %s %x\n", key, part, sha256.Sum256(data))
	}
	marshal := func(key string, v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return data
	}
	for _, name := range spec.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/%d", name, seed)
			tr := presetTrace(t, name, requests, seed)
			scores, err := CrossExamine(tr, p, CrossExamOptions{Requests: tr.Len(), Seed: seed, SkipThroughput: true})
			if err != nil {
				t.Fatalf("%s: cross-examine: %v", key, err)
			}
			v, err := Validate(tr, tr.Len(), p, KoozaOptions{}, seed)
			if err != nil {
				t.Fatalf("%s: validate: %v", key, err)
			}
			hash(key, "scores", marshal(key, scores))
			hash(key, "rows", marshal(key, v.Rows))
			hash(key, "render", []byte(v.Render()))
			hash(key, "model", marshal(key, v.Model))
		}
	}

	path := filepath.Join("testdata", "offline_tables.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test . -run TestOfflineTablesDigest -update` to regenerate)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("Tables 1-2 drifted from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
