package stats

import (
	"fmt"
	"math"
)

// Principal component analysis. The paper proposes PCA (alongside SVD,
// sampling and regression) to "reduce the dimensionality of feature-space,
// to the ones necessary for a representative and succinct model" (§4);
// Abrahao et al. use it to categorize CPU-utilization trace data.

// PCA holds a fitted principal-component transform.
type PCA struct {
	// Mean is the per-feature mean removed before projection.
	Mean []float64
	// Scale is the per-feature standard deviation (1 if zero) used when the
	// transform was fitted with standardization.
	Scale []float64
	// Components has one principal direction per column, ordered by
	// decreasing explained variance.
	Components *Matrix
	// Variances are the eigenvalues (explained variance per component).
	Variances []float64
}

// PCAOptions configures FitPCA.
type PCAOptions struct {
	// Standardize divides each feature by its standard deviation before the
	// eigendecomposition (correlation-matrix PCA). Recommended when features
	// have incomparable units (bytes vs. utilization).
	Standardize bool
}

// FitPCA fits a PCA on data (rows = observations, columns = features).
func FitPCA(data *Matrix, opts PCAOptions) (*PCA, error) {
	n, d := data.Rows, data.Cols
	if n < 2 {
		return nil, ErrShortSample
	}
	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j, x := range row {
			mean[j] += x
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	scale := make([]float64, d)
	for j := range scale {
		scale[j] = 1
	}
	if opts.Standardize {
		for i := 0; i < n; i++ {
			row := data.Row(i)
			for j, x := range row {
				dv := x - mean[j]
				scale[j] += dv * dv
			}
		}
		for j := range scale {
			s := math.Sqrt((scale[j] - 1) / float64(n-1))
			if s == 0 {
				s = 1
			}
			scale[j] = s
		}
	}
	// Covariance of the centered (and scaled) data.
	cov := NewMatrix(d, d)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for a := 0; a < d; a++ {
			da := (row[a] - mean[a]) / scale[a]
			for b := a; b < d; b++ {
				db := (row[b] - mean[b]) / scale[b]
				cov.Data[a*d+b] += da * db
			}
		}
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) / float64(n-1)
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	eig, err := EigenSym(cov)
	if err != nil {
		return nil, fmt.Errorf("stats: pca eigendecomposition: %w", err)
	}
	for i, v := range eig.Values {
		if v < 0 {
			eig.Values[i] = 0 // numerical noise on rank-deficient data
		}
	}
	return &PCA{Mean: mean, Scale: scale, Components: eig.Vectors, Variances: eig.Values}, nil
}

// ExplainedVarianceRatio returns the fraction of total variance captured by
// each component.
func (p *PCA) ExplainedVarianceRatio() []float64 {
	total := Sum(p.Variances)
	out := make([]float64, len(p.Variances))
	if total == 0 {
		return out
	}
	for i, v := range p.Variances {
		out[i] = v / total
	}
	return out
}

// ComponentsFor returns the smallest number of leading components whose
// cumulative explained variance reaches the given fraction (e.g. 0.95).
func (p *PCA) ComponentsFor(fraction float64) int {
	ratios := p.ExplainedVarianceRatio()
	var cum float64
	for i, r := range ratios {
		cum += r
		if cum >= fraction {
			return i + 1
		}
	}
	return len(ratios)
}
