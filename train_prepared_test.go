package dcmodel

import (
	"bytes"
	"sync"
	"testing"

	"dcmodel/internal/inbreadth"
	"dcmodel/internal/indepth"
	"dcmodel/internal/kooza"
	"dcmodel/internal/trace"
)

// Allocation ceilings for the three trainers on the 4000-request bench
// trace: a quarter of what each allocated when every trainer re-derived its
// own input and keyed its path counts by formatted strings (105190, 104722
// and 36296 allocations per call). Per-request or per-span allocation in a
// trainer cannot come back under these.
func TestTrainAllocationCeilings(t *testing.T) {
	tr := benchTrace()
	for _, tt := range []struct {
		name    string
		ceiling float64
		train   func() error
	}{
		{"kooza", 105190 / 4, func() error { _, err := kooza.Train(tr, kooza.Options{}); return err }},
		{"inbreadth", 104722 / 4, func() error { _, err := inbreadth.Train(tr, inbreadth.Options{}); return err }},
		{"indepth", 36296 / 4, func() error { _, err := indepth.Train(tr); return err }},
	} {
		var err error
		got := testing.AllocsPerRun(3, func() { err = tt.train() })
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if got > tt.ceiling {
			t.Errorf("%s.Train: %.0f allocations on %d requests, ceiling %.0f", tt.name, got, tr.Len(), tt.ceiling)
		}
	}
}

// TestPreparedInputShared trains the three approaches at once on one
// prepared input, as the daemon's retrain and CrossExamine do, and demands
// the models the one-trace entry points give: sharing the input must not
// let one trainer see another's writes.
func TestPreparedInputShared(t *testing.T) {
	tr := multiExtentTrace(t)
	saved := func(a Approach, m Model, err error) []byte {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", a, err)
			return nil
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Errorf("%s: %v", a, err)
		}
		return buf.Bytes()
	}
	approaches := []Approach{Kooza, InBreadth, InDepth}
	prepare := sync.OnceValues(func() (*trace.Prepared, error) { return trace.Prepare(tr) })
	shared := make([][]byte, len(approaches))
	var wg sync.WaitGroup
	for i, a := range approaches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := trainApproach(prepare, a, trainSettings{})
			shared[i] = saved(a, m, err)
		}()
	}
	wg.Wait()
	for i, a := range approaches {
		m, err := Train(tr, a)
		if alone := saved(a, m, err); !bytes.Equal(shared[i], alone) {
			t.Errorf("%s: model trained on the shared input differs from Train's", a)
		}
	}
}
