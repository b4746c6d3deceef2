package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// worsening is by how much b is worse than a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// cells are the values of one metric on one workload over sets.
func cells(sets []*runSetResult, workload, metric string) []float64 {
	var out []float64
	for _, s := range sets {
		if r := s.Workloads[workload]; r != nil {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// failures sums the failed operations of one workload over sets.
func failures(sets []*runSetResult, workload string) (failed int) {
	for _, s := range sets {
		if r := s.Workloads[workload]; r != nil {
			failed += r.Failed
		}
	}
	return failed
}

// runAA runs the full set n times untraced and n times traced, with the same
// code and seed. Every end-to-end cell is held to its bound: the widest gap
// between any two sets, as a share of the median, must stay within it. The
// failed count of every workload, and on the traced sets every per-layer
// number that depends on the seed alone (exactPerLayer), must repeat
// exactly. Exit code 1 otherwise.
func runAA(n int, cfg runConfig) int {
	code := 0
	runSets := func(traced bool) (sets []*runSetResult) {
		cfg.traced = traced
		for i := 0; i < n; i++ {
			set, ok := runSet(cfg)
			if !ok {
				code = 1
			}
			sets = append(sets, set)
		}
		return sets
	}
	plain, traced := runSets(false), runSets(true)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian\tspread\tbound\t\n")
	for _, def := range workloads {
		for _, m := range endToEnd {
			vs := sorted(cells(plain, def.name, m.name))
			if len(vs) < n {
				fmt.Fprintf(tw, "%s\t%s\tmissing\t\t\t\n", def.name, m.name)
				code = 1
				continue
			}
			gap := (vs[len(vs)-1] - vs[0]) / median(vs)
			verdict := ""
			if gap > m.bound && vs[len(vs)-1]-vs[0] > m.floor {
				verdict = "BEYOND"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.1f%%\t%.0f%%\t%s\n", def.name, m.name, median(vs), m.unit, 100*gap, 100*m.bound, verdict)
		}
		same := func(what string, vs []float64) {
			verdict := ""
			if len(vs) < n || vs[0] != vs[len(vs)-1] {
				verdict = "DIFFERS"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%v\t\texact\t%s\n", def.name, what, vs, verdict)
		}
		failedIn := func(sets []*runSetResult) (out []float64) {
			for _, s := range sets {
				out = append(out, float64(failures([]*runSetResult{s}, def.name)))
			}
			return sorted(out)
		}
		same("failed", failedIn(plain))
		same("failed, traced", failedIn(traced))
		for _, name := range exactPerLayer {
			same(name, sorted(cells(traced, def.name, name)))
		}
	}
	tw.Flush()
	return code
}

// compareFiles reads -json files given as parent, change, parent, change, ...
// (the order they were run in, sides alternating) and applies the rule for a
// small sandbox to every end-to-end cell: a gain is claimed only when the
// change wins at least nine tenths of the pairs, ties counting for neither
// side, and the medians differ by more than the distance between the
// parent's own quartiles; a regression is a median worse than the parent's
// by more than the bound; a cell whose parent spread is wider than the bound
// is unresolved unless every change run beats every parent run; and no gain
// counts on a workload where more operations failed under the change than
// under the parent. Exit code 1 on a regression.
func compareFiles(paths []string) int {
	if len(paths) < 2 || len(paths)%2 != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare wants parent and change files in pairs")
		return 2
	}
	var parent, change []*runSetResult
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fatal(err)
		}
		var set runSetResult
		if err := json.Unmarshal(data, &set); err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
		if i%2 == 0 {
			parent = append(parent, &set)
		} else {
			change = append(change, &set)
		}
	}
	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tparent q1/med/q3\tchange q1/med/q3\twins\tverdict\t\n")
	for _, def := range workloads {
		failedParent, failedChange := failures(parent, def.name), failures(change, def.name)
		for _, m := range endToEnd {
			a, b := cells(parent, def.name, m.name), cells(change, def.name, m.name)
			if len(a) != len(parent) || len(b) != len(change) {
				fmt.Fprintf(tw, "%s\t%s\tmissing\t\t\t\t\n", def.name, m.name)
				code = 1
				continue
			}
			wins, losses := 0, 0
			for i := range a {
				switch w := worsening(m, a[i], b[i]); {
				case w < 0:
					wins++
				case w > 0:
					losses++
				}
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			clean := true // every change run better than every parent run
			for _, x := range a {
				for _, y := range b {
					clean = clean && worsening(m, x, y) < 0
				}
			}
			verdict := "unchanged"
			switch worse := worsening(m, amed, bmed); {
			case spread(a) > m.bound && !clean:
				verdict = "unresolved"
			case worse > m.bound && math.Abs(bmed-amed) > m.floor:
				verdict = "REGRESSION"
				code = 1
			case 10*wins >= 9*len(a) && wins > 0 && math.Abs(bmed-amed) > aq3-aq1:
				verdict = "gain"
				if failedChange > failedParent {
					verdict = fmt.Sprintf("no gain: %d failed, parent %d", failedChange, failedParent)
				}
			case worse < 0 || worse > 0:
				verdict = "within bound"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g/%.5g/%.5g\t%.5g/%.5g/%.5g\t%d-%d of %d\t%s\t\n",
				def.name, m.name, aq1, amed, aq3, bq1, bmed, bq3, wins, losses, len(a), verdict)
		}
	}
	tw.Flush()
	if len(parent) < 10 {
		fmt.Printf("note: %d pairs; the rule wants at least ten before a gain is claimed\n", len(parent))
	}
	return code
}
