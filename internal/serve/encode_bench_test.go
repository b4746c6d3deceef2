package serve

import (
	"math/rand"
	"testing"

	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

// BenchmarkEncodeAnswer prices the text answers of /v1/synthesize in the
// shape the daemon writes them: a 1000-request synthesis of each model,
// trained as the daemon trains on an 8192-request window of the chat
// preset, encoded to CSV and to JSON by trace.AppendCSV and AppendJSON into
// a reused buffer, as encodeExact does; and, for scale, the window's own
// first 1000 requests. ns/req is the cost per encoded request.
func BenchmarkEncodeAnswer(b *testing.B) {
	ps, err := spec.Preset("chat")
	if err != nil {
		b.Fatal(err)
	}
	c, err := ps.Compile(spec.Options{Requests: 8192, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	window, err := c.Generate(0)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := trace.Prepare(window)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	kz, err := kooza.TrainPrepared(prep, kooza.Options{StorageRegions: cfg.StorageRegions, DiskBlocks: cfg.DiskBlocks, Smoothing: cfg.Smoothing})
	if err != nil {
		b.Fatal(err)
	}
	ib, err := inbreadth.TrainPrepared(prep, inbreadth.Options{StorageRegions: cfg.StorageRegions, DiskBlocks: cfg.DiskBlocks, Smoothing: cfg.Smoothing})
	if err != nil {
		b.Fatal(err)
	}
	id, err := indepth.TrainPrepared(prep)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1000
	for _, m := range []struct {
		name       string
		synthesize func(int, *rand.Rand) (*trace.Trace, error)
	}{
		{"kooza", kz.Synthesize},
		{"inbreadth", ib.Synthesize},
		{"indepth", id.Synthesize},
		// The first n requests of the window itself, the ingest shape:
		// every span has a start, a duration and a utilization of its own.
		{"window", func(int, *rand.Rand) (*trace.Trace, error) {
			return &trace.Trace{Requests: window.Requests[:n]}, nil
		}},
	} {
		answer, err := m.synthesize(n, rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		var buf []byte
		b.Run(m.name+"/csv", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = trace.AppendCSV(buf[:0], answer)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
		})
		b.Run(m.name+"/json", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if buf, err = trace.AppendJSON(buf[:0], answer); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
		})
	}
}
