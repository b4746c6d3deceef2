package kooza

import (
	"fmt"
	"slices"
	"strings"

	"dcmodel/internal/stats"
	"dcmodel/internal/trace"
)

// Feature-space analysis: the paper proposes reducing "the dimensionality
// of feature-space, to the ones necessary for a representative and
// succinct model, using techniques like PCA, SVD, sampling, or regression
// analysis" (§4). FeatureAnalysis builds the per-request feature matrix,
// runs PCA, and reports how many dimensions the workload actually has and
// which raw features load on them — guidance for choosing model detail.

// FeatureNames lists the per-request features, in matrix column order.
var FeatureNames = []string{
	"interarrival", "net_in_bytes", "net_out_bytes",
	"cpu_util", "mem_bytes", "mem_bank",
	"storage_bytes", "storage_lbn",
}

// FeatureMatrix builds the per-request feature matrix of a trace (one row
// per request, columns per FeatureNames). Requests lacking a subsystem
// contribute zeros for its features.
func FeatureMatrix(tr *trace.Trace) (*stats.Matrix, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, trace.ErrEmptyTrace
	}
	sorted := &trace.Trace{Requests: append([]trace.Request(nil), tr.Requests...)}
	sorted.SortByArrival()
	m := stats.NewMatrix(sorted.Len(), len(FeatureNames))
	prev := 0.0
	for i, r := range sorted.Requests {
		row := m.Row(i)
		row[0] = r.Arrival - prev
		prev = r.Arrival
		nets := r.SpansIn(trace.Network)
		if len(nets) > 0 {
			row[1] = float64(nets[0].Bytes)
			row[2] = float64(nets[len(nets)-1].Bytes)
		}
		if cpus := r.SpansIn(trace.CPU); len(cpus) > 0 {
			row[3] = cpus[0].Util
		}
		if mems := r.SpansIn(trace.Memory); len(mems) > 0 {
			row[4] = float64(mems[0].Bytes)
			row[5] = float64(mems[0].Bank)
		}
		if stors := r.SpansIn(trace.Storage); len(stors) > 0 {
			row[6] = float64(stors[0].Bytes)
			row[7] = float64(stors[0].LBN)
		}
	}
	return m, nil
}

// FeatureReport summarizes the PCA of a trace's feature space.
type FeatureReport struct {
	// Components95 is the number of principal components covering 95% of
	// the (standardized) feature variance — the workload's effective
	// dimensionality.
	Components95 int
	// ExplainedVariance holds the per-component variance ratios.
	ExplainedVariance []float64
	// Loadings maps each leading component (up to Components95) to the
	// raw features with |loading| >= 0.3, strongest first.
	Loadings [][]string
}

// FeatureAnalysis builds the feature matrix and runs standardized PCA.
func FeatureAnalysis(tr *trace.Trace) (*FeatureReport, error) {
	m, err := FeatureMatrix(tr)
	if err != nil {
		return nil, err
	}
	pca, err := stats.FitPCA(m, stats.PCAOptions{Standardize: true})
	if err != nil {
		return nil, fmt.Errorf("kooza: feature pca: %w", err)
	}
	rep := &FeatureReport{
		Components95:      pca.ComponentsFor(0.95),
		ExplainedVariance: pca.ExplainedVarianceRatio(),
	}
	for c := 0; c < rep.Components95; c++ {
		type loading struct {
			name string
			abs  float64
		}
		var ls []loading
		for f, name := range FeatureNames {
			v := pca.Components.At(f, c)
			if v < 0 {
				v = -v
			}
			if v >= 0.3 {
				ls = append(ls, loading{name: name, abs: v})
			}
		}
		slices.SortFunc(ls, func(a, b loading) int { return stats.CompareLess(b.abs, a.abs) })
		names := make([]string, len(ls))
		for i, l := range ls {
			names[i] = l.name
		}
		rep.Loadings = append(rep.Loadings, names)
	}
	return rep, nil
}

// Render formats the report.
func (r *FeatureReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "feature-space analysis (PCA over %d features):\n", len(FeatureNames))
	fmt.Fprintf(&b, "  effective dimensionality (95%% variance): %d\n", r.Components95)
	for c, names := range r.Loadings {
		fmt.Fprintf(&b, "  PC%d (%.1f%%): %s\n", c+1, 100*r.ExplainedVariance[c], strings.Join(names, ", "))
	}
	return b.String()
}
