package stats

import (
	"math/rand"
	"testing"
)

// The batch samplers must consume one variate per draw in scalar order:
// same seed, byte-identical output. These pins are what let the synthesis
// batch path claim equivalence with the goldens recorded under Draw.

func TestAliasMatrixWalkNMatchesScalar(t *testing.T) {
	const n = 11
	data := make([]float64, n*n)
	for i := range data {
		data[i] = float64(i%3) + 0.125
	}
	m, err := NewAliasMatrix(data, n, n)
	if err != nil {
		t.Fatal(err)
	}
	r1 := rand.New(rand.NewSource(7))
	state := 3
	want := make([]int, 2048)
	for i := range want {
		state = m.Draw(state, r1)
		want[i] = state
	}
	finalScalar := state

	r2 := rand.New(rand.NewSource(7))
	got := make([]int, 2048)
	finalBatch := m.WalkN(3, r2, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: WalkN %d, scalar %d", i, got[i], want[i])
		}
	}
	if finalBatch != finalScalar {
		t.Fatalf("final state: WalkN %d, scalar %d", finalBatch, finalScalar)
	}
	if r1.Float64() != r2.Float64() {
		t.Fatal("RNG streams diverged after the walk")
	}

	// Zero-length batches consume nothing and return the input state.
	r3 := rand.New(rand.NewSource(9))
	if s := m.WalkN(5, r3, nil); s != 5 {
		t.Fatalf("empty walk moved the state to %d", s)
	}
	if r3.Float64() != rand.New(rand.NewSource(9)).Float64() {
		t.Fatal("empty walk consumed a variate")
	}
}
