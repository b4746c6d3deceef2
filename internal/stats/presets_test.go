package stats_test

import (
	"fmt"
	"sync"
	"testing"

	"dcmodel/internal/spec"
	"dcmodel/internal/trace"
)

// presetTrace generates n requests of a shipped preset at seed, as the
// offline pipeline does.
func presetTrace(tb testing.TB, name string, n int, seed int64) *trace.Trace {
	tb.Helper()
	s, err := spec.Preset(name)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := s.Compile(spec.Options{Requests: n, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := c.Generate(0)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// featureRequests is the size of one preset trace of the offline pipeline.
const featureRequests = 5000

var (
	featuresOnce sync.Once
	features     map[string][]float64
)

// presetFeatures returns, unsorted, every sample crossexam's extractFeatures
// sorts on the six presets at seed 1: the pooled storage bytes, storage
// LBNs, memory bytes, CPU utilizations and network bytes, and the storage
// bytes of each class. Keys are "preset/sample".
func presetFeatures(tb testing.TB) map[string][]float64 {
	featuresOnce.Do(func() {
		features = map[string][]float64{}
		for _, name := range spec.Names() {
			tr := presetTrace(tb, name, featureRequests, 1)
			add := func(sample string, v float64) {
				key := name + "/" + sample
				features[key] = append(features[key], v)
			}
			for i := range tr.Requests {
				r := &tr.Requests[i]
				for j := range r.Spans {
					s := &r.Spans[j]
					switch s.Subsystem {
					case trace.Storage:
						add("storage bytes", float64(s.Bytes))
						add("storage lbn", float64(s.LBN))
						add(fmt.Sprintf("class %s storage bytes", r.Class), float64(s.Bytes))
					case trace.Memory:
						add("memory bytes", float64(s.Bytes))
					case trace.CPU:
						add("cpu util", s.Util)
					case trace.Network:
						add("network bytes", float64(s.Bytes))
					}
				}
			}
		}
	})
	if len(features) == 0 {
		tb.Fatal("no preset feature samples")
	}
	return features
}
