package experiments

import (
	"fmt"
	"io"

	"astrea/internal/report"
)

// UFAblationResult separates the two gaps between the AFS baseline and
// MWPM: the Union-Find algorithm itself, and its classic unweighted growth.
// Weighted UF recovers part of the accuracy; the rest is the cluster
// heuristic, which only exact matching closes — quantifying why the paper's
// approximate baselines trail MWPM by orders of magnitude.
type UFAblationResult struct {
	P         float64
	Distances []int
	// LERs[di] = {MWPM, weighted UF, unweighted UF}.
	LERs [][]float64
}

// UFAblation runs the comparison with the stratified estimator.
func UFAblation(b Budget, p float64, distances ...int) (*UFAblationResult, error) {
	if len(distances) == 0 {
		distances = []int{3, 5, 7}
	}
	res := &UFAblationResult{P: p, Distances: distances}
	for _, d := range distances {
		env, err := Env(d, p)
		if err != nil {
			return nil, err
		}
		lers, _, err := stratifiedLERs(env, b, MWPMFactory, WeightedUFFactory, UFFactory)
		if err != nil {
			return nil, err
		}
		res.LERs = append(res.LERs, lers)
	}
	return res, nil
}

// Render writes the ablation.
func (r *UFAblationResult) Render(w io.Writer) error {
	t := report.Table{
		Title:   fmt.Sprintf("Union-Find ablation: algorithm vs weighting (p=%g)", r.P),
		Headers: []string{"d", "MWPM", "UF (weighted)", "UF (unweighted, AFS)", "weighted/MWPM", "unweighted/MWPM"},
	}
	for i, d := range r.Distances {
		m, uw, uu := r.LERs[i][0], r.LERs[i][1], r.LERs[i][2]
		rw, ru := "n/a", "n/a"
		if m > 0 {
			rw = fmt.Sprintf("%.1fx", uw/m)
			ru = fmt.Sprintf("%.1fx", uu/m)
		}
		t.AddRow(d, m, uw, uu, rw, ru)
	}
	return t.Write(w)
}
