package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Error("Set/At mismatch")
	}
	row := m.Row(1)
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("Row should alias storage")
	}
	c := m.Clone()
	c.Set(0, 0, 100)
	if m.At(0, 0) == 100 {
		t.Error("Clone should be independent")
	}
}

// matrixOf builds a matrix from equal-length rows.
func matrixOf(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m
}

func TestEigenSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := matrixOf([][]float64{{2, 1}, {1, 2}})
	eig, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, eig.Values[0], 3, 1e-10, "largest eigenvalue")
	approx(t, eig.Values[1], 1, 1e-10, "smallest eigenvalue")
	// Eigenvector of 3 is (1,1)/sqrt2 up to sign.
	v0 := []float64{eig.Vectors.At(0, 0), eig.Vectors.At(1, 0)}
	if math.Abs(math.Abs(v0[0])-math.Sqrt2/2) > 1e-8 || math.Abs(v0[0]-v0[1]) > 1e-8 {
		t.Errorf("eigenvector of 3 = %v", v0)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	// A = V diag(w) V' for a random symmetric matrix.
	r := rand.New(rand.NewSource(50))
	const n = 6
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	eig, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += eig.Vectors.At(i, k) * eig.Values[k] * eig.Vectors.At(j, k)
			}
			if math.Abs(s-a.At(i, j)) > 1e-8 {
				t.Fatalf("reconstruction error at (%d,%d): %g vs %g", i, j, s, a.At(i, j))
			}
		}
	}
	// Orthonormality of eigenvectors.
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			var dot float64
			for k := 0; k < n; k++ {
				dot += eig.Vectors.At(k, p) * eig.Vectors.At(k, q)
			}
			want := 0.0
			if p == q {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Fatalf("eigenvectors not orthonormal at (%d,%d): %g", p, q, dot)
			}
		}
	}
}

func TestEigenSymNonSquare(t *testing.T) {
	if _, err := EigenSym(NewMatrix(2, 3)); err == nil {
		t.Error("non-square eigen should fail")
	}
}

func TestSolveLinear(t *testing.T) {
	a := matrixOf([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	x, err := SolveLinear(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		approx(t, x[i], want[i], 1e-10, "solve solution")
	}
}

func TestSolveLinearErrors(t *testing.T) {
	sing := matrixOf([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(sing, []float64{1, 2}); err == nil {
		t.Error("singular solve should fail")
	}
	if _, err := SolveLinear(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Error("non-square solve should fail")
	}
	sq := NewMatrix(2, 2)
	if _, err := SolveLinear(sq, []float64{1}); err == nil {
		t.Error("rhs length mismatch should fail")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(8)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		xWant := make([]float64, n)
		for i := range xWant {
			xWant[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			for j, x := range xWant {
				b[i] += a.At(i, j) * x
			}
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			continue // singular random draw; acceptable
		}
		for i := range x {
			if math.Abs(x[i]-xWant[i]) > 1e-6 {
				t.Fatalf("trial %d: solve mismatch %v vs %v", trial, x, xWant)
			}
		}
	}
}
