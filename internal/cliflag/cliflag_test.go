package cliflag

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dcmodel/internal/gfs"
	"dcmodel/internal/trace"
	"dcmodel/internal/workload"
)

func TestValidators(t *testing.T) {
	cases := []struct {
		name string
		got  Problem
		ok   bool
	}{
		{"workers 0", Workers(0), true},
		{"workers 8", Workers(8), true},
		{"workers -1", Workers(-1), false},
		{"shards 1", Shards(1), true},
		{"shards 0", Shards(0), false},
		{"shards -3", Shards(-3), false},
		{"seed 1", Seed(1), true},
		{"seed max", Seed(math.MaxInt64), true},
		{"seed 0", Seed(0), false},
		{"seed -5", Seed(-5), false},
		{"min ok", Min("n", 4, 1), true},
		{"min bad", Min("n", 0, 1), false},
		{"posfloat ok", PositiveFloat("rate", 0.5), true},
		{"posfloat zero", PositiveFloat("rate", 0), false},
		{"posfloat neg", PositiveFloat("rate", -2), false},
		{"posfloat nan", PositiveFloat("rate", math.NaN()), false},
	}
	for _, c := range cases {
		if c.ok && c.got != "" {
			t.Errorf("%s: unexpected problem %q", c.name, c.got)
		}
		if !c.ok && c.got == "" {
			t.Errorf("%s: invalid value accepted", c.name)
		}
	}
}

func TestCheckExitsOnlyOnProblems(t *testing.T) {
	exited := -1
	orig := exit
	exit = func(code int) { exited = code }
	defer func() { exit = orig }()

	Check("", "", "")
	if exited != -1 {
		t.Fatalf("Check exited (%d) on all-valid input", exited)
	}
	Check("", Workers(-1))
	if exited != 2 {
		t.Fatalf("Check exit code = %d, want 2", exited)
	}
}

// TestReadTraceCSVAndBinary: one trace saved as CSV and as a .dct file
// loads back as two equal traces, and a missing path is an error.
func TestReadTraceCSVAndBinary(t *testing.T) {
	c, err := gfs.NewCluster(gfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(gfs.RunConfig{
		Mix:      workload.Table2Mix(),
		Arrivals: workload.Poisson{Rate: 20},
		Requests: 200,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got := map[string]*trace.Trace{}
	for name, write := range map[string]func(f *os.File) error{
		"t.csv": func(f *os.File) error { return trace.WriteCSV(f, want) },
		"t.dct": func(f *os.File) error { return trace.WriteBinary(f, want) },
	} {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if got[name], err = ReadTrace(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if !reflect.DeepEqual(got["t.csv"], got["t.dct"]) {
		t.Error("the CSV and the .dct file of one trace load as different traces")
	}
	if got["t.csv"].Len() != want.Len() {
		t.Errorf("loaded %d requests, wrote %d", got["t.csv"].Len(), want.Len())
	}
	if _, err := ReadTrace(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("a missing path loaded without error")
	}
}
