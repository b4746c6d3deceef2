package main

import (
	"bytes"
	"fmt"
	"io"

	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

const (
	// batchRequests is the trace requests per ingest POST (loadgen's default).
	batchRequests = 500
	// cycleRequests is the length of a streamed input cycle: at least twice
	// the daemon's 8192-request window, so the window never holds a request
	// twice however often the cycle repeats.
	cycleRequests = 32768
	// windowRequests is serve.DefaultConfig().Window, the size layer metrics
	// are stated at.
	windowRequests = 8192
	// flipEvery is the regime length of retrain-churn in trace requests.
	flipEvery = 4096
)

// generate compiles the named preset at n requests and the given seed. The
// seed is the only source of variation in any benchmark input.
func generate(preset string, n int, seed int64) (*trace.Trace, error) {
	s, err := spec.Preset(preset)
	if err != nil {
		return nil, fmt.Errorf("preset %s: %w", preset, err)
	}
	c, err := s.Compile(spec.Options{Requests: n, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", preset, err)
	}
	tr, err := c.Generate(0)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", preset, err)
	}
	return tr, nil
}

// Regime layout of retrain-churn. A preset request carries at most one
// storage span, hence no storage-region transition, and the daemon's drift
// test (chi-square over transition rows) would never be consulted. So each
// storage span is cut into regimeExtents extents that walk the regime's own
// regimeRegions disk regions. Regimes rotate through the cycle without
// repeating inside it: when one comes round again its rows have long left
// the window and the served reference chain, so every flip presents rows the
// reference has never seen and the trigger fires once, at the first check
// past RetrainMin; after that retrain the reference holds them.
const (
	regimeExtents = 4
	regimeRegions = 3
	regimes       = cycleRequests / flipEvery
)

// flipRegimes rewrites the storage spans of tr as described above. Region
// geometry is the daemon's (diskBlocks over storageRegions). Spans are
// rebuilt, never edited in place: the input trace is left as generated.
func flipRegimes(tr *trace.Trace, diskBlocks int64, storageRegions int) *trace.Trace {
	perRegion := diskBlocks / int64(storageRegions)
	stride := storageRegions / regimes
	out := &trace.Trace{Requests: make([]trace.Request, len(tr.Requests))}
	copy(out.Requests, tr.Requests)
	step := 0
	for i := range out.Requests {
		base := (i / flipEvery) % regimes * stride
		var spans []trace.Span
		for _, sp := range out.Requests[i].Spans {
			if sp.Subsystem != trace.Storage {
				spans = append(spans, sp)
				continue
			}
			for k := 0; k < regimeExtents; k++ {
				ext := sp
				ext.Start = sp.Start + float64(k)*sp.Duration/regimeExtents
				ext.Duration = sp.Duration / regimeExtents
				ext.Bytes = max(sp.Bytes/regimeExtents, 1)
				ext.LBN = int64(base+step%regimeRegions)*perRegion + sp.LBN%perRegion
				step++
				spans = append(spans, ext)
			}
		}
		out.Requests[i].Spans = spans
	}
	return out
}

// codec names one wire encoding of a trace.
type codec struct {
	name        string
	contentType string
	write       func(io.Writer, *trace.Trace) error
}

var (
	codecBinary = codec{"binary", trace.ContentTypeV2, trace.WriteBinary}
	codecCSV    = codec{"csv", "text/csv", trace.WriteCSV}
)

// batch is one pre-encoded ingest body.
type batch struct {
	body     []byte
	requests int
}

// encodeBatches cuts tr into bodies of batchRequests requests (the last one
// may be shorter) in the given codec.
func encodeBatches(tr *trace.Trace, c codec) ([]batch, error) {
	var out []batch
	for lo := 0; lo < tr.Len(); lo += batchRequests {
		hi := min(lo+batchRequests, tr.Len())
		var buf bytes.Buffer
		if err := c.write(&buf, &trace.Trace{Requests: tr.Requests[lo:hi]}); err != nil {
			return nil, fmt.Errorf("encode %s batch: %w", c.name, err)
		}
		out = append(out, batch{body: buf.Bytes(), requests: hi - lo})
	}
	return out, nil
}
