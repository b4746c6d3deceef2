package markov

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// TestChainDecodesFrozen holds a decoded chain to the trained one: it is
// frozen as it decodes, so it draws the same walk from the same seed.
func TestChainDecodesFrozen(t *testing.T) {
	seq := make([]int, 2000)
	r := rand.New(rand.NewSource(3))
	for i := 1; i < len(seq); i++ {
		seq[i] = (seq[i-1] + r.Intn(3) + 5) % 6
	}
	c, err := Train([][]int{seq}, 6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Chain
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.rowAlias.Rows() != back.N || back.initAlias.Empty() {
		t.Fatal("decoded chain is not frozen")
	}
	ra, rb := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	a, b := c.Start(ra), back.Start(rb)
	for i := 0; i < 500; i++ {
		if a != b {
			t.Fatalf("step %d: trained chain at %d, decoded at %d", i, a, b)
		}
		a, b = c.Step(a, ra), back.Step(b, rb)
	}
	again, err := json.Marshal(&back)
	if err != nil || string(again) != string(data) {
		t.Fatalf("re-encoded chain differs (%v)", err)
	}
}

// TestChainDecodeRefusesShape wants every chain whose matrices do not fit
// N, or whose rows are no distribution, refused with an error.
func TestChainDecodeRefusesShape(t *testing.T) {
	const ok = `{"N":2,"Trans":{"Rows":2,"Cols":2,"Data":[0.5,0.5,0.25,0.75]},"Initial":[0.5,0.5],"Visits":[3,4]}`
	var c Chain
	if err := json.Unmarshal([]byte(ok), &c); err != nil {
		t.Fatalf("well-formed chain refused: %v", err)
	}
	for name, bad := range map[string]string{
		"no states":          `{"N":0,"Trans":{"Rows":0,"Cols":0,"Data":[]},"Initial":[],"Visits":[]}`,
		"no matrix":          `{"N":2,"Initial":[0.5,0.5],"Visits":[3,4]}`,
		"half the matrix":    strings.Replace(ok, "[0.5,0.5,0.25,0.75]", "[0.5,0.5]", 1),
		"wrong row count":    strings.Replace(ok, `"Rows":2`, `"Rows":1`, 1),
		"empty initial":      strings.Replace(ok, `"Initial":[0.5,0.5]`, `"Initial":[]`, 1),
		"short visits":       strings.Replace(ok, `"Visits":[3,4]`, `"Visits":[3]`, 1),
		"row of zeros":       strings.Replace(ok, "0.25,0.75", "0,0", 1),
		"negative weight":    strings.Replace(ok, "0.25,0.75", "-0.25,1.25", 1),
		"initial of zeros":   strings.Replace(ok, `"Initial":[0.5,0.5]`, `"Initial":[0,0]`, 1),
		"states past 2^32":   `{"N":4294967296,"Trans":{"Rows":4294967296,"Cols":4294967296,"Data":[]},"Initial":[],"Visits":[]}`,
		"not a chain at all": `[1,2]`,
	} {
		var c Chain
		if err := json.Unmarshal([]byte(bad), &c); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestHierarchicalDecodeRefusesShape wants a hierarchy whose groups,
// members and sub-chains disagree refused, and a trained one to decode
// and walk as it did.
func TestHierarchicalDecodeRefusesShape(t *testing.T) {
	seq := []int{0, 1, 2, 3, 2, 1, 0, 1, 3, 3, 2, 0}
	h, err := TrainHierarchical([][]int{seq}, 4, []int{0, 0, 1, 1}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hierarchical
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	a := h.Simulate(50, rand.New(rand.NewSource(8)))
	b := back.Simulate(50, rand.New(rand.NewSource(8)))
	if len(a) != len(b) {
		t.Fatal("simulation lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("state %d: trained %d, decoded %d", i, a[i], b[i])
		}
	}
	var doc map[string]any
	for name, edit := range map[string]func(){
		"missing sub-chain":       func() { doc["Sub"] = doc["Sub"].([]any)[:1] },
		"missing member list":     func() { doc["Members"] = doc["Members"].([]any)[:1] },
		"member of no group":      func() { doc["Members"].([]any)[0].([]any)[0] = 9.0 },
		"member of another group": func() { doc["Groups"].([]any)[0] = 1.0 },
	} {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		edit()
		edited, _ := json.Marshal(doc)
		var h Hierarchical
		if err := json.Unmarshal(edited, &h); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
