package markov

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchChain trains a chain over n states from a random-walk sequence, the
// shape of the storage/CPU/memory chains the synthesis hot loop steps.
func benchChain(b *testing.B, n int) *Chain {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	seq := make([]int, 20000)
	for i := 1; i < len(seq); i++ {
		seq[i] = (seq[i-1] + r.Intn(5) - 2 + n) % n
	}
	c, err := Train([][]int{seq}, n, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkChainStep times one Markov transition draw — the innermost
// operation of every synthesis loop. With frozen alias tables this is O(1)
// and 0 allocs/op at any state count.
func BenchmarkChainStep(b *testing.B) {
	for _, n := range []int{8, 32, 128, 1024} {
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			c := benchChain(b, n)
			r := rand.New(rand.NewSource(2))
			state := c.Start(r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				state = c.Step(state, r)
			}
			_ = state
		})
	}
}

// BenchmarkChainStepN times the batched walk: per-step cost of StepN over
// a 1024-step batch.
func BenchmarkChainStepN(b *testing.B) {
	for _, n := range []int{8, 32, 128, 1024} {
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			c := benchChain(b, n)
			r := rand.New(rand.NewSource(2))
			state := c.Start(r)
			out := make([]int, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(out) {
				state = c.StepN(state, r, out)
			}
			_ = state
		})
	}
}

func BenchmarkChainSimulate(b *testing.B) {
	c := benchChain(b, 32)
	r := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Simulate(1000, r)
	}
}

func BenchmarkHMMSample(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	obs := make([]float64, 2000)
	for i := range obs {
		obs[i] = float64(i%7) + 0.1*r.NormFloat64()
	}
	h, err := NewGaussianHMM(4, obs, r)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.Fit(obs, 10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Sample(100, r)
	}
}
