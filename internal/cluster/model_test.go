package cluster

import (
	"bytes"
	"math/rand"
	"testing"

	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

// testTrace generates a deterministic preset workload trace.
func testTrace(t testing.TB, requests int, seed int64) *trace.Trace {
	t.Helper()
	sp, err := spec.Resolve("webtier")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := sp.Compile(spec.Options{Requests: requests, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := compiled.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// modelBytes trains one model on the given requests and marshals it.
func modelBytes(t *testing.T, cfg ModelConfig, reqs []trace.Request) []byte {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		m.Observe(reqs[i])
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestModelMergeExactness is the determinism contract at model level: a
// trace partitioned across K shard models (by the routing hash), with the
// shards merged in shuffled order, yields a model byte-identical to one
// model fed the whole trace in order.
func TestModelMergeExactness(t *testing.T) {
	tr := testTrace(t, 3000, 7)
	cfg := DefaultModelConfig()
	want := modelBytes(t, cfg, tr.Requests)

	for _, shards := range []int{1, 2, 3, 5, 8} {
		ring, err := NewRing(shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*Model, shards)
		for i := range parts {
			if parts[i], err = NewModel(cfg); err != nil {
				t.Fatal(err)
			}
		}
		for i := range tr.Requests {
			req := tr.Requests[i]
			parts[ring.Owner(Key(req.ID, req.Class))].Observe(req)
		}
		merged, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		order := rand.New(rand.NewSource(int64(shards))).Perm(shards)
		for _, i := range order {
			if err := merged.Merge(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := merged.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d-shard merge differs from the single-model bytes", shards)
		}
	}
}

func TestModelMergeConfigMismatch(t *testing.T) {
	a, err := NewModel(ModelConfig{StorageRegions: 32})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModel(ModelConfig{StorageRegions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("merging mismatched quantizations succeeded")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge = %v, want no-op", err)
	}
}

func TestModelMarshalRoundTrip(t *testing.T) {
	tr := testTrace(t, 500, 3)
	cfg := DefaultModelConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveTrace(tr)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("marshal -> unmarshal -> marshal is not a fixed point")
	}
	if back.Requests() != m.Requests() {
		t.Fatalf("round-tripped requests = %d, want %d", back.Requests(), m.Requests())
	}
}

func TestUnmarshalModelRejectsCorruption(t *testing.T) {
	tr := testTrace(t, 200, 5)
	m, err := NewModel(DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveTrace(tr)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     blob[:3],
		"magic":     append([]byte("XXXX"), blob[4:]...),
		"truncated": blob[:len(blob)/2],
		"trailing":  append(append([]byte{}, blob...), 0),
	}
	for name, data := range cases {
		if _, err := UnmarshalModel(data); err == nil {
			t.Errorf("%s blob accepted", name)
		}
	}
}

// TestSynthesizeDeterministic pins that synthesis is a pure function of
// (model bytes, seed) and yields structurally valid traces.
func TestSynthesizeDeterministic(t *testing.T) {
	tr := testTrace(t, 2000, 11)
	m, err := NewModel(DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveTrace(tr)

	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	copyM, err := UnmarshalModel(blob)
	if err != nil {
		t.Fatal(err)
	}

	a, err := m.Synthesize(500, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := copyM.Synthesize(500, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("synthesized trace invalid: %v", err)
	}
	var ab, bb bytes.Buffer
	if err := trace.WriteBinary(&ab, a); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("same model bytes + same seed produced different traces")
	}
}

func TestSynthesizeUntrained(t *testing.T) {
	m, err := NewModel(DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Synthesize(10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("untrained synthesis succeeded")
	}
}

func TestCharacterizeShares(t *testing.T) {
	tr := testTrace(t, 1000, 9)
	m, err := NewModel(DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.ObserveTrace(tr)
	sum := m.Characterize()
	if sum.Requests != int64(len(tr.Requests)) {
		t.Fatalf("summary requests = %d, want %d", sum.Requests, len(tr.Requests))
	}
	var total float64
	for _, cs := range sum.Classes {
		total += cs.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("class shares sum to %g, want 1", total)
	}
	if sum.Rate <= 0 {
		t.Fatalf("rate = %g, want > 0", sum.Rate)
	}
}
