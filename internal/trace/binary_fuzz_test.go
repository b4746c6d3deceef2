package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzBinaryCodec exercises the trace-v2 codec from both directions on a
// single string corpus. Interpreted as a binary stream, the input must
// never panic the decoder, and anything the decoder accepts must survive
// a re-encode/re-decode byte-identically at the CSV level. Interpreted as
// CSV, any accepted trace must round-trip CSV→binary→CSV to the exact
// same bytes — the codec's losslessness claim, checked on arbitrary
// mutations of real traces.
func FuzzBinaryCodec(f *testing.F) {
	// Real traces: the package sample plus the corner-case trace from
	// binary_test.go (negative deltas, empty classes, denormal floats).
	for _, tr := range []*Trace{sampleTrace(), binaryTestTrace()} {
		var csv, bin bytes.Buffer
		if err := WriteCSV(&csv, tr); err != nil {
			f.Fatal(err)
		}
		if err := WriteBinary(&bin, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(csv.String())
		f.Add(bin.String())
	}
	// The six preset golden traces from the spec package (internal/spec
	// cannot be imported here — it depends on this package — so the
	// goldens are read relatively, best-effort: a moved testdata dir
	// weakens the corpus but must not fail the fuzzer).
	if goldens, err := filepath.Glob(filepath.Join("..", "spec", "testdata", "*.golden.csv")); err == nil {
		for _, path := range goldens {
			if b, err := os.ReadFile(path); err == nil {
				f.Add(string(b))
			}
		}
	}
	// Corrupted headers and truncated streams: wrong magic, wrong
	// version, bad markers, a block that promises more bytes and
	// requests than it carries, and a bare valid prefix.
	f.Add("DCT2")
	f.Add(binaryMagic + "\x00")
	f.Add(binaryMagic + "\x01")
	f.Add(binaryMagic + "\x01\x00")
	f.Add(binaryMagic + "\x01\x02\x05hello")
	f.Add(binaryMagic + "\x01\x01\xff\xff\xff\xff\x7f")
	f.Add(binaryMagic + "\x01\x01\x02\xff\x7f\x00")
	f.Add("TCD2\x01\x00")
	// A crasher this target found: the CSV reader used to accept a negative
	// retry count, which trace-v2 cannot carry.
	f.Add(csvHeaderLine + "0,,0,00000,network,00000,00,,00,0,0,0,-1,")
	// And one above MaxInt32, which the CSV reader and the trace-v2
	// writer took and the trace-v2 reader refused.
	f.Add(csvHeaderLine + "0,,0,00000,network,00000,00,,00,0,0,0,2200000000,")

	f.Fuzz(func(t *testing.T, input string) {
		// Direction 1: input as a binary stream. Accept or reject, never
		// panic; accepted traces must re-encode losslessly.
		if tr, err := ReadBinary(strings.NewReader(input)); err == nil {
			assertBinaryLossless(t, tr)
		}

		// Direction 2: input as CSV. Whatever the CSV reader accepts,
		// the binary codec must carry without loss.
		tr, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		assertBinaryLossless(t, tr)
	})
}

// assertBinaryLossless encodes tr to trace-v2, decodes it back, and fails
// if the CSV rendering of the two traces differs by a single byte. CSV is
// the comparison medium because it is deterministic even for NaN-carrying
// traces, where reflect.DeepEqual cannot be used.
func assertBinaryLossless(t *testing.T, tr *Trace) {
	t.Helper()
	var bin bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatalf("accepted trace failed to encode as binary: %v", err)
	}
	back, err := ReadBinary(&bin)
	if err != nil {
		t.Fatalf("binary re-encode failed to decode: %v", err)
	}
	var want, got bytes.Buffer
	if err := WriteCSV(&want, tr); err != nil {
		t.Fatalf("CSV encode of original: %v", err)
	}
	if err := WriteCSV(&got, back); err != nil {
		t.Fatalf("CSV encode of round-tripped trace: %v", err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("binary round trip not lossless\n want CSV:\n%s\n got CSV:\n%s", want.String(), got.String())
	}
}
