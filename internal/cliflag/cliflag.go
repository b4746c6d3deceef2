// Package cliflag is the shared post-flag.Parse layer of the cmd/* tools.
// Every command rejects nonsensical flag values — negative worker counts,
// zero shards, non-positive seeds — with a non-zero exit and a one-line
// usage hint, instead of silently clamping or failing deep inside an
// engine with an unrelated error, and loads its -in trace the same way.
package cliflag

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dcmodel/internal/errs"
	"dcmodel/internal/trace"
)

// Problem describes one invalid flag value; an empty string means valid.
type Problem = string

// Workers validates a -workers value: 0 selects GOMAXPROCS, >= 1 is a
// bound, negative is rejected.
func Workers(v int) Problem {
	if v < 0 {
		return fmt.Sprintf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", v)
	}
	return ""
}

// Shards validates a -shards value: at least one shard.
func Shards(v int) Problem {
	if v < 1 {
		return fmt.Sprintf("-shards must be >= 1, got %d", v)
	}
	return ""
}

// Seed validates a -seed value: seeds are positive so every documented
// reproduction command has a meaningful SplitMix64-derived stream family.
func Seed(v int64) Problem {
	if v < 1 {
		return fmt.Sprintf("-seed must be a positive integer, got %d", v)
	}
	return ""
}

// Min validates an integer flag against an inclusive lower bound.
func Min(name string, v, min int) Problem {
	if v < min {
		return fmt.Sprintf("-%s must be >= %d, got %d", name, min, v)
	}
	return ""
}

// PositiveFloat validates a float flag that must be strictly positive.
func PositiveFloat(name string, v float64) Problem {
	if !(v > 0) { // rejects NaN too
		return fmt.Sprintf("-%s must be > 0, got %g", name, v)
	}
	return ""
}

// exit is swapped out by tests.
var exit = os.Exit

// Check aggregates validations: if any problem is non-empty it prints
// each to stderr, prints the one-line usage hint, and exits 2.
func Check(problems ...Problem) {
	var bad []string
	for _, p := range problems {
		if p != "" {
			bad = append(bad, p)
		}
	}
	if len(bad) == 0 {
		return
	}
	prog := filepath.Base(os.Args[0])
	for _, p := range bad {
		fmt.Fprintf(os.Stderr, "%s: %s\n", prog, p)
	}
	fmt.Fprintf(os.Stderr, "usage: run '%s -h' for the flag summary\n", prog)
	exit(2)
}

// Fatal reports a runtime error and exits with a code chosen by error
// class (via errors.Is on the toolkit's sentinel errors) rather than by
// message matching: configuration mistakes exit 2 like flag errors, so
// scripts can tell "fix your invocation" from "the run itself failed"
// (exit 1).
func Fatal(err error) {
	prog := filepath.Base(os.Args[0])
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	if errors.Is(err, errs.ErrBadConfig) {
		fmt.Fprintf(os.Stderr, "usage: run '%s -h' for the flag summary\n", prog)
		exit(2)
	}
	exit(1)
}

// ReadTrace loads the trace an -in flag names: "-" reads CSV from stdin, a
// .dct path reads the binary trace-v2 format, any other path reads CSV.
func ReadTrace(path string) (*trace.Trace, error) {
	if path == "-" {
		return trace.ReadCSV(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".dct") {
		return trace.ReadBinary(f)
	}
	return trace.ReadCSV(f)
}
