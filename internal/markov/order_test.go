package markov

import (
	"math"
	"math/rand"
	"testing"
)

// secondOrderSeq generates a sequence whose next state depends on the last
// TWO states: after (0,1) always 2; after (1,1) always 0; otherwise
// uniform. A first-order chain cannot capture this.
func secondOrderSeq(n int, r *rand.Rand) []int {
	seq := make([]int, n)
	seq[0], seq[1] = r.Intn(3), r.Intn(3)
	for i := 2; i < n; i++ {
		a, b := seq[i-2], seq[i-1]
		switch {
		case a == 0 && b == 1:
			seq[i] = 2
		case a == 1 && b == 1:
			seq[i] = 0
		default:
			seq[i] = r.Intn(3)
		}
	}
	return seq
}

func TestTrainOrderKCapturesSecondOrderStructure(t *testing.T) {
	r := rand.New(rand.NewSource(130))
	seq := secondOrderSeq(30000, r)
	o2, err := TrainOrderK([][]int{seq}, 3, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	o1, err := TrainOrderK([][]int{seq}, 3, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// The order-2 model must explain the data strictly better.
	test := secondOrderSeq(5000, r)
	ll2 := o2.LogLikelihood(test) / float64(len(test))
	ll1 := o1.LogLikelihood(test) / float64(len(test))
	if ll2 <= ll1 {
		t.Errorf("order-2 loglik %g not above order-1 %g", ll2, ll1)
	}
	// The order-2 chain learns the deterministic rule: composite state
	// (0,1) moves to (1,2).
	if p := o2.Chain.Trans.At(0*3+1, 1*3+2); p < 0.95 {
		t.Errorf("order-2 chain obeys the rule with probability %g, want ~1", p)
	}
	// A sequence shorter than the order scores nothing.
	if ll := o2.LogLikelihood([]int{0}); ll != 0 {
		t.Errorf("too-short loglik = %g, want 0", ll)
	}
	// Parameter growth: order-2 over 3 states = 9 composite states.
	if o2.NumParams() <= o1.NumParams() {
		t.Error("order-2 must cost more parameters")
	}
}

func TestTrainOrderKErrors(t *testing.T) {
	if _, err := TrainOrderK([][]int{{0, 1}}, 2, 0, 0.1); err == nil {
		t.Error("order 0 should fail")
	}
	if _, err := TrainOrderK([][]int{{0, 1}}, 0, 1, 0.1); err == nil {
		t.Error("zero states should fail")
	}
	if _, err := TrainOrderK([][]int{{0, 1}}, 100, 4, 0.1); err == nil {
		t.Error("state-space explosion should fail")
	}
	if _, err := TrainOrderK([][]int{{0, 9}}, 3, 2, 0.1); err == nil {
		t.Error("out-of-range state should fail")
	}
	// Sequences shorter than k contribute nothing; all-short input fails.
	if _, err := TrainOrderK([][]int{{0}}, 3, 2, 0.1); err == nil {
		t.Error("all-too-short sequences should fail")
	}
}

func TestOrderKEqualsOrder1(t *testing.T) {
	// k=1 must reduce exactly to the plain chain.
	r := rand.New(rand.NewSource(132))
	seq := make([]int, 5000)
	for i := 1; i < len(seq); i++ {
		if r.Float64() < 0.8 {
			seq[i] = seq[i-1]
		} else {
			seq[i] = r.Intn(4)
		}
	}
	o, err := TrainOrderK([][]int{seq}, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Train([][]int{seq}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(o.Chain.Trans.At(i, j)-plain.Trans.At(i, j)) > 1e-12 {
				t.Fatalf("k=1 transition (%d,%d) differs", i, j)
			}
		}
	}
}
