package dcmodel

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dcmodel/internal/kooza"
	"dcmodel/internal/replay"
	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// oracleRows computes Table 2's rows as Validate did before it read each
// trace once: per class, ByClass copies and one slice per feature,
// averaged by stats.Mean.
func oracleRows(tr, synth, timed *Trace) []FeatureRow {
	mean := func(t *Trace, sub Subsystem, f func(Span) float64) float64 { return stats.Mean(t.SpanFeature(sub, f)) }
	bytesOf := func(s Span) float64 { return float64(s.Bytes) }
	utilOf := func(s Span) float64 { return s.Util }
	payload := func(t *Trace) float64 {
		var xs []float64
		for _, r := range t.Requests {
			var m int64
			for _, s := range r.SpansIn(trace.Network) {
				m = max(m, s.Bytes)
			}
			xs = append(xs, float64(m))
		}
		return stats.Mean(xs)
	}
	dominant := func(t *Trace, sub Subsystem) Op {
		var reads, writes int
		for _, r := range t.Requests {
			for _, s := range r.SpansIn(sub) {
				if s.Op == OpRead {
					reads++
				} else if s.Op == OpWrite {
					writes++
				}
			}
		}
		if reads >= writes {
			return OpRead
		}
		return OpWrite
	}
	var rows []FeatureRow
	for _, class := range tr.Classes() {
		o, s, tt := tr.ByClass(class), synth.ByClass(class), timed.ByClass(class)
		rows = append(rows, FeatureRow{Class: class,
			NetOrig: payload(o), NetSynth: payload(s),
			UtilOrig: mean(o, trace.CPU, utilOf), UtilSynth: mean(s, trace.CPU, utilOf),
			MemOrig: mean(o, trace.Memory, bytesOf), MemSynth: mean(s, trace.Memory, bytesOf),
			StorOrig: mean(o, trace.Storage, bytesOf), StorSynth: mean(s, trace.Storage, bytesOf),
			MemOpOrig: dominant(o, trace.Memory), MemOpSynth: dominant(s, trace.Memory),
			StorOpOrig: dominant(o, trace.Storage), StorOpSynth: dominant(s, trace.Storage),
			LatOrig: stats.Mean(o.Latencies()), LatSynth: stats.Mean(tt.Latencies()),
		})
	}
	return rows
}

// TestValidateMatchesOracle: the one-pass rows carry the bits of the
// per-class slices they replaced, on a trace where half of one class's
// requests have no storage span and another class only writes.
func TestValidateMatchesOracle(t *testing.T) {
	tr := presetTrace(t, "webtier", 3000, 5)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		switch i % 3 {
		case 1:
			r.Class = "cached"
			if i%2 == 0 {
				continue
			}
			spans := r.Spans[:0:0]
			for _, s := range r.Spans {
				if s.Subsystem != trace.Storage {
					spans = append(spans, s)
				}
			}
			r.Spans = spans
		case 2:
			r.Class = "writer"
			r.Spans = append([]Span(nil), r.Spans...)
			for j := range r.Spans {
				r.Spans[j].Op = OpWrite
			}
		}
	}
	p := DefaultPlatform()
	v, err := Validate(tr, 2000, p, KoozaOptions{}, 6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kooza.Train(tr, KoozaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	synth, err := m.Synthesize(2000, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	timed, err := replay.Run(synth, p)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleRows(tr, synth, timed)
	if len(v.Rows) != len(want) {
		t.Fatalf("%d rows, oracle %d", len(v.Rows), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(v.Rows[i], want[i]) {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, v.Rows[i], want[i])
		}
	}
}

// TestValidateErrorJoins: when training fails, or a class never reaches
// the synthetic trace, Validate returns today's error, and the goroutine
// that read the original trace has exited by then.
func TestValidateErrorJoins(t *testing.T) {
	tr := presetTrace(t, "webtier", 3000, 7)
	rare := 0
	for i := range tr.Requests {
		if i%500 == 0 {
			tr.Requests[i].Class = "rare"
			rare++
		}
	}
	short := &Trace{Requests: append([]Request(nil), tr.Requests[:2]...)}
	_, trainErr := kooza.Train(short, KoozaOptions{})
	if trainErr == nil {
		t.Fatal("training on two requests should fail")
	}
	for _, tt := range []struct {
		name string
		tr   *Trace
		n    int
		want string
	}{
		{"training fails", short, 100, trainErr.Error()},
		{"class never synthesized", tr, 30, fmt.Sprintf("dcmodel: class %q missing from synthetic trace", "rare")},
	} {
		before := runtime.NumGoroutine()
		_, err := Validate(tt.tr, tt.n, DefaultPlatform(), KoozaOptions{}, 8)
		if err == nil || err.Error() != tt.want {
			t.Errorf("%s: error %v, want %q", tt.name, err, tt.want)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines after Validate returned, %d before", tt.name, n, before)
		}
	}
}
