package trace

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// spansOf builds a span sequence with the given subsystems.
func spansOf(subs ...Subsystem) []Span {
	spans := make([]Span, len(subs))
	for i, s := range subs {
		spans[i].Subsystem = s
	}
	return spans
}

// TestPhasePathsTieBreakOrder pins the order of equally frequent paths to
// what the trainers did when they keyed their count maps by
// fmt.Sprint(phases): the string order of "[network cpu ...]", where cpu
// sorts before network and a longer path before its own prefix.
func TestPhasePathsTieBreakOrder(t *testing.T) {
	seqs := [][]Span{
		spansOf(Network, CPU),
		spansOf(CPU, Network),
		spansOf(Network, CPU, Memory),
		spansOf(Network),
		spansOf(Storage, Storage),
		spansOf(),
	}
	var p PhasePaths
	counts := make(map[string]int)
	phases := make(map[string][]Subsystem)
	add := func(spans []Span, times int) {
		for i := 0; i < times; i++ {
			p.Add(spans)
			r := Request{Spans: spans}
			key := fmt.Sprint(r.Phases())
			counts[key]++
			phases[key] = r.Phases()
		}
	}
	for _, s := range seqs {
		add(s, 2)
	}
	add(spansOf(Storage), 3)

	// The oracle is the code this helper replaced.
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	ranked := p.Ranked()
	if len(ranked) != len(keys) {
		t.Fatalf("got %d distinct paths, want %d", len(ranked), len(keys))
	}
	pos := make(map[string]int)
	for i, k := range keys {
		if !reflect.DeepEqual(ranked[i].Phases, phases[k]) || ranked[i].Count != counts[k] {
			t.Errorf("rank %d: got %v x%d, want %s x%d", i, ranked[i].Phases, ranked[i].Count, k, counts[k])
		}
		pos[k] = i
	}
	if keys[0] != "[storage]" {
		t.Errorf("most frequent path ranks %q first", keys[0])
	}
	if !(pos["[cpu network]"] < pos["[network cpu]"]) {
		t.Error("[cpu network] must precede [network cpu]: names, not subsystem numbers, break the tie")
	}
	if !(pos["[network cpu memory]"] < pos["[network cpu]"] && pos["[network cpu]"] < pos["[network]"]) {
		t.Error("a longer path must precede its own prefix: ' ' sorts before ']'")
	}
	for _, s := range append(seqs, spansOf(Storage)) {
		r, ok := p.Rank(s)
		if !ok || !PhasesMatch(s, ranked[r].Phases) {
			t.Errorf("Rank(%v) = %d, %v", Request{Spans: s}.Phases(), r, ok)
		}
	}
	if _, ok := p.Rank(spansOf(Memory)); ok {
		t.Error("Rank found a path that was never added")
	}
	if got := p.SpanCount(Storage); got != 2*2+3 {
		t.Errorf("SpanCount(Storage) = %d, want 7", got)
	}
	if got := p.SpanCount(Network); got != 2*4 {
		t.Errorf("SpanCount(Network) = %d, want 8", got)
	}
}

// TestPhasePathsKeysDistinct: subsystem values a valid trace cannot hold
// still get keys of their own.
func TestPhasePathsKeysDistinct(t *testing.T) {
	var p PhasePaths
	for _, s := range [][]Span{
		spansOf(Subsystem(0xff)), spansOf(Subsystem(0x1ff)), spansOf(Subsystem(-1)),
		spansOf(Subsystem(0xff), Network), spansOf(Subsystem(0xfe), Subsystem(0xff)),
	} {
		p.Add(s)
	}
	if n := len(p.Ranked()); n != 5 {
		t.Errorf("got %d distinct paths, want 5", n)
	}
}

// TestPhasePathsAddAllocs: once every path has been seen, counting a
// request allocates nothing.
func TestPhasePathsAddAllocs(t *testing.T) {
	tr := sampleTrace()
	var p PhasePaths
	for _, r := range tr.Requests {
		p.Add(r.Spans)
	}
	p.Ranked()
	if n := testing.AllocsPerRun(100, func() {
		for i := range tr.Requests {
			p.Add(tr.Requests[i].Spans)
		}
	}); n != 0 {
		t.Errorf("Add on a warm counter: %v allocations per %d requests, want 0", n, tr.Len())
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := range tr.Requests {
			p.Rank(tr.Requests[i].Spans)
		}
	}); n != 0 {
		t.Errorf("Rank: %v allocations per %d requests, want 0", n, tr.Len())
	}
}

// TestPrepare checks the shared trainer input against the methods the
// trainers used to call one by one.
func TestPrepare(t *testing.T) {
	tr := sampleTrace()
	// Out of arrival order, with a tie: the stable sort keeps trace order.
	tr.Requests = append(tr.Requests, Request{ID: 4, Class: "write4M", Arrival: 0.5}, Request{ID: 5, Class: "scan", Arrival: 0.2})
	before := append([]Request(nil), tr.Requests...)
	p, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Requests, before) {
		t.Error("Prepare reordered the caller's trace")
	}
	sorted := &Trace{Requests: append([]Request(nil), tr.Requests...)}
	sorted.SortByArrival()
	if !reflect.DeepEqual(p.Requests, sorted.Requests) {
		t.Errorf("requests not in stable arrival order: %+v", p.Requests)
	}
	if !reflect.DeepEqual(p.Gaps, sorted.Interarrivals()) {
		t.Errorf("gaps = %v, want %v", p.Gaps, sorted.Interarrivals())
	}
	if p.Arrival.Dist == nil {
		t.Error("no arrival fit")
	}
	classes := sorted.Classes()
	if len(p.Classes) != len(classes) {
		t.Fatalf("got %d classes, want %d", len(p.Classes), len(classes))
	}
	for i, pc := range p.Classes {
		if pc.Name != classes[i] {
			t.Errorf("class %d is %q, want %q", i, pc.Name, classes[i])
		}
		if want := sorted.ByClass(pc.Name).Requests; !reflect.DeepEqual(pc.Requests, want) {
			t.Errorf("class %q requests = %+v, want %+v", pc.Name, pc.Requests, want)
		}
	}
	// read64K: one request with the six-phase path, one without spans (not
	// a path).
	if got := p.Classes[0].Paths.Ranked(); len(got) != 1 || got[0].Count != 1 || len(got[0].Phases) != 6 {
		t.Errorf("read64K paths = %+v", got)
	}
	if got, want := p.SpanCount(CPU), 3; got != want {
		t.Errorf("SpanCount(CPU) = %d, want %d", got, want)
	}

	// A trace already in arrival order is used as it is.
	q, err := Prepare(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if &q.Requests[0] != &sorted.Requests[0] {
		t.Error("an arrival-ordered trace was copied")
	}
}

func TestPrepareErrors(t *testing.T) {
	if _, err := Prepare(nil); err != ErrEmptyTrace {
		t.Errorf("nil trace: %v", err)
	}
	if _, err := Prepare(&Trace{}); err != ErrEmptyTrace {
		t.Errorf("empty trace: %v", err)
	}
	two := &Trace{Requests: sampleTrace().Requests[:2]}
	if _, err := Prepare(two); err == nil || !strings.Contains(err.Error(), ">= 3 requests") {
		t.Errorf("two requests: %v", err)
	}
	dup := sampleTrace()
	dup.Requests[2].ID = 1
	if _, err := Prepare(dup); err == nil || !strings.Contains(err.Error(), "invalid training trace") {
		t.Errorf("duplicate ID: %v", err)
	}
}

// TestNoFormattedMapKeys is a source-level guard: no non-test file under
// internal/ indexes a map by the result of fmt.Sprint, Sprintf or Sprintln.
// Formatting a value per element to key a map is how counting phase paths
// came to cost a fifth of a cross-examination; PhasePaths is the
// replacement for that case, and a struct or compact byte key for others.
func TestNoFormattedMapKeys(t *testing.T) {
	isSprint := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "fmt" && strings.HasPrefix(sel.Sel.Name, "Sprint")
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		// Names bound to a formatted string anywhere in the file.
		formatted := make(map[*ast.Object]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Obj != nil && isSprint(rhs) {
						formatted[id.Obj] = true
					}
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			ix, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			id, _ := ix.Index.(*ast.Ident)
			if isSprint(ix.Index) || (id != nil && formatted[id.Obj]) {
				t.Errorf("%s: map indexed by a fmt.Sprint-formatted key", fset.Position(ix.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoReflectionSorts is a source-level guard: no non-test file of the
// trainers' packages sorts through sort.Slice, sort.SliceStable or
// sort.Sort. The first two swap elements through reflection and all three
// call the comparison through an interface, which a retrain's profile showed
// as 8 % of its time; slices.SortFunc and slices.SortStableFunc on the
// concrete type run the same algorithm without either (with
// stats.CompareLess when the key is a float, which keeps the order a NaN
// would get).
func TestNoReflectionSorts(t *testing.T) {
	banned := map[string]bool{"Slice": true, "SliceStable": true, "Sort": true}
	fset := token.NewFileSet()
	for _, dir := range []string{"../kooza", "../inbreadth", "../indepth", "../stats", "."} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("%s: %d go files (%v)", dir, len(names), err)
		}
		for _, path := range names {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sort" && banned[sel.Sel.Name] {
					t.Errorf("%s: sort.%s; use slices.SortFunc or slices.SortStableFunc on the concrete type", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// TestNoFloatSortsOutsideStats is a source-level guard: no non-test file of
// the module outside internal/stats sorts floats through sort.Float64s or
// sort.Float64Slice. stats.SortFloats leaves exactly the slice sort.Float64s
// leaves and sorts a long sample by radix in a few linear passes, so it is
// the one entry point; inside internal/stats it falls back to sort.Float64s.
// Nested modules (benchmark/) are not part of this one and are skipped.
func TestNoFloatSortsOutsideStats(t *testing.T) {
	banned := map[string]bool{"Float64s": true, "Float64Slice": true}
	root := filepath.Join("..", "..")
	stats := filepath.Join(root, "internal", "stats")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == stats || d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sort" && banned[sel.Sel.Name] {
				t.Errorf("%s: sort.%s; use stats.SortFloats", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d non-test files; the module root is not %s", files, root)
	}
}
