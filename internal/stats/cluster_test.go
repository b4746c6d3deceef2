package stats

import (
	"math/rand"
	"testing"
)

// threeBlobs generates n points around three well-separated 2D centers.
func threeBlobs(n int, r *rand.Rand) (*Matrix, []int) {
	centers := [][]float64{{0, 0}, {20, 0}, {0, 20}}
	m := NewMatrix(n, 2)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		truth[i] = c
		m.Set(i, 0, centers[c][0]+r.NormFloat64())
		m.Set(i, 1, centers[c][1]+r.NormFloat64())
	}
	return m, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	data, truth := threeBlobs(600, r)
	res, err := KMeans(data, 3, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Clusters are a permutation of the truth: check purity.
	var confusion [3][3]int
	for i, c := range res.Assign {
		confusion[truth[i]][c]++
	}
	var correct int
	for tr := 0; tr < 3; tr++ {
		best := 0
		for c := 0; c < 3; c++ {
			if confusion[tr][c] > best {
				best = confusion[tr][c]
			}
		}
		correct += best
	}
	purity := float64(correct) / 600
	if purity < 0.99 {
		t.Errorf("k-means purity = %g, want > 0.99", purity)
	}
	if res.Inertia <= 0 {
		t.Errorf("inertia = %g, want positive", res.Inertia)
	}
}

func TestKMeansErrors(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	data := NewMatrix(2, 2)
	if _, err := KMeans(data, 0, r, 10); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := KMeans(data, 5, r, 10); err == nil {
		t.Error("n<k should fail")
	}
}

func TestKMeansK1(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	data, _ := threeBlobs(90, r)
	res, err := KMeans(data, 1, r, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Single centroid must be the grand mean.
	var mx, my float64
	for i := 0; i < data.Rows; i++ {
		mx += data.At(i, 0)
		my += data.At(i, 1)
	}
	mx /= float64(data.Rows)
	my /= float64(data.Rows)
	approx(t, res.Centroids.At(0, 0), mx, 1e-9, "k=1 centroid x")
	approx(t, res.Centroids.At(0, 1), my, 1e-9, "k=1 centroid y")
}

func TestKMeansDuplicatePoints(t *testing.T) {
	// All-identical data must not divide by zero or loop forever.
	r := rand.New(rand.NewSource(73))
	data := NewMatrix(10, 2)
	for i := 0; i < 10; i++ {
		data.Set(i, 0, 5)
		data.Set(i, 1, 5)
	}
	res, err := KMeans(data, 2, r, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Errorf("identical-points inertia = %g, want 0", res.Inertia)
	}
}
