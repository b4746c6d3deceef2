package dcmodel

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

var update = flag.Bool("update", false, "regenerate golden files under testdata/")

// presetTrace generates the named preset at n requests and the given seed.
func presetTrace(t testing.TB, name string, n int, seed int64) *Trace {
	t.Helper()
	s, err := spec.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile(spec.Options{Requests: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// multiExtentTrace reshapes a mapreduce trace the way the perf record's
// retrain-churn workload does — every storage span cut into four extents
// that walk three disk regions, the regions rotating every quarter of the
// trace — and then forces a tie between phase paths: inside each class,
// every second request loses its leading network span, and an odd class
// size gives its last request a third path. The two tied paths sort
// differently as "[cpu ..." / "[network ..." strings than as subsystem
// numbers, so the digest pins the string order the trainers have always
// broken ties by.
func multiExtentTrace(t testing.TB) *Trace {
	t.Helper()
	const (
		extents     = 4
		regions     = 3
		diskBlocks  = 128 << 20
		perRegion   = diskBlocks / 32
		regimeEvery = 500
	)
	src := presetTrace(t, "mapreduce", 2000, 1)
	out := &Trace{Requests: make([]Request, len(src.Requests))}
	copy(out.Requests, src.Requests)
	perClass := make(map[string]int)
	for _, r := range src.Requests {
		perClass[r.Class]++
	}
	seen := make(map[string]int)
	step := 0
	for i := range out.Requests {
		r := &out.Requests[i]
		base := i / regimeEvery * regions
		var spans []Span
		for _, sp := range r.Spans {
			if sp.Subsystem != trace.Storage {
				spans = append(spans, sp)
				continue
			}
			for k := 0; k < extents; k++ {
				ext := sp
				ext.Start = sp.Start + float64(k)*sp.Duration/extents
				ext.Duration = sp.Duration / extents
				ext.Bytes = max(sp.Bytes/extents, 1)
				ext.LBN = int64(base+step%regions)*perRegion + sp.LBN%perRegion
				step++
				spans = append(spans, ext)
			}
		}
		j := seen[r.Class]
		seen[r.Class]++
		switch {
		case j == perClass[r.Class]-1 && j%2 == 0:
			spans = spans[:len(spans)-1] // odd one out: keeps the other two tied
		case j%2 == 1:
			spans = spans[1:]
		}
		r.Spans = spans
	}
	return out
}

// TestTrainedModelDigests pins "same model": the sha256 of every trainer's
// saved model on the six presets and on a multi-extent trace with tied
// phase paths, of what each preset model synthesizes, and of each preset
// in-breadth model's standalone storage stream. The golden file was
// generated before the trainers were rebuilt around one prepared input; a
// trainer change that moves one digest changed a model.
func TestTrainedModelDigests(t *testing.T) {
	type entrant struct {
		name string
		a    Approach
		opts []TrainOption
	}
	entrants := []entrant{{"kooza", Kooza, nil}, {"inbreadth", InBreadth, nil}, {"indepth", InDepth, nil}}
	daemon := []TrainOption{WithStorageRegions(32), WithDiskBlocks(128 << 20), WithSmoothing(0.01)}
	var b strings.Builder
	digest := func(traceName string, tr *Trace, e entrant) Model {
		m, err := Train(tr, e.a, e.opts...)
		if err != nil {
			t.Fatalf("%s/%s: %v", traceName, e.name, err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%s/%s: %v", traceName, e.name, err)
		}
		fmt.Fprintf(&b, "%s/%s %x\n", traceName, e.name, sha256.Sum256(buf.Bytes()))
		return m
	}
	// A synth line pins the synthesized trace and the draw that follows it
	// on the same rand, at a length that ends inside a partial slab of the
	// span arena.
	const synthN = 2*4096 + 1234
	for _, name := range spec.Names() {
		tr := presetTrace(t, name, 2000, 1)
		for _, e := range entrants {
			m := digest(name, tr, e)
			r := rand.New(rand.NewSource(5))
			syn, err := m.Synthesize(synthN, r)
			if err != nil {
				t.Fatalf("%s/%s/synth: %v", name, e.name, err)
			}
			buf := fmt.Appendf(trace.AppendCSV(nil, syn), "next draw %d\n", r.Int63())
			fmt.Fprintf(&b, "%s/%s/synth %x\n", name, e.name, sha256.Sum256(buf))
			if ib, ok := m.(inBreadthTrained); ok {
				// The standalone storage stream walks the storage model alone.
				r := rand.New(rand.NewSource(6))
				var buf []byte
				for _, ev := range ib.GenerateIOStream(synthN, r) {
					buf = fmt.Appendf(buf, "%d %d %d\n", ev.LBN, ev.Bytes, ev.Op)
				}
				buf = fmt.Appendf(buf, "next draw %d\n", r.Int63())
				fmt.Fprintf(&b, "%s/%s/iostream %x\n", name, e.name, sha256.Sum256(buf))
			}
		}
	}
	multi := multiExtentTrace(t)
	for _, e := range entrants {
		e.opts = daemon
		digest("multi-extent", multi, e)
	}
	digest("multi-extent", multi, entrant{"kooza-hier-mmpp", Kooza, []TrainOption{
		WithKoozaOptions(KoozaOptions{Hierarchical: true, ArrivalStates: 3, DiskBlocks: 128 << 20}),
	}})

	path := filepath.Join("testdata", "model_digests.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test . -run TestTrainedModelDigests -update` to regenerate)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("trained models drifted from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
