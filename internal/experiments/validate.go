package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/validate"
	"github.com/networksynth/cold/internal/zoo"
)

// Validate is the ensemble-scale validation experiment ("does COLD's
// ensemble match the target family?"): it streams count COLD networks plus
// three reference families — the zoo stand-in and ER / BA null models
// matched to the zoo's sizes — through the internal/validate pipeline,
// then scores COLD and both baselines against the zoo.
//
// The baselines anchor the scorecard: ER has no hubs and BA overshoots
// hub concentration, so COLD scoring closer to the zoo than both is the
// result the paper's §6 claims. A COLD-vs-COLD self-comparison runs as a
// built-in sanity check and turns into an error when it fails — if the
// pipeline cannot match an ensemble to itself, no other verdict means
// anything.
//
// When records is non-nil, every family's per-topology JSONL records are
// appended to it in family order (cold, zoo, er, ba). Output is
// deterministic for fixed Options regardless of Parallelism or machine.
func Validate(o Options, count int, records io.Writer) ([]*Table, error) {
	o = o.normalize()
	if count <= 0 {
		count = 1000
	}
	ctx := context.Background()

	d := cold.DefaultParams()
	cfg := o.config(d.K2, d.K3)
	refGraphs := zoo.Graphs(zoo.Ensemble(zoo.DefaultSize, rand.New(rand.NewSource(o.Seed+zoo.DefaultSeed))))

	sources := []validate.Source{
		validate.ColdSource(cfg, count),
		validate.GraphsSource("zoo", refGraphs),
		validate.MatchedER(refGraphs, o.Seed+1),
		validate.MatchedBA(refGraphs, o.Seed+2),
	}
	ensembles := make(map[string]*validate.Ensemble, len(sources))
	for _, src := range sources {
		ens, err := validate.Run(ctx, src, records)
		if err != nil {
			return nil, err
		}
		ensembles[src.Name] = ens
	}

	sopts := validate.ScoreOptions{Bootstrap: o.Bootstrap, Seed: o.Seed}
	self := validate.Score(ensembles["cold"], ensembles["cold"], sopts)
	if !self.Pass {
		return nil, fmt.Errorf("validate: self-comparison failed — the pipeline cannot match the COLD ensemble to itself (dist1k=%v dist2k=%v overlap=%v)",
			self.Dist1K, self.Dist2K, self.OverlapFrac)
	}
	cards := []*validate.Scorecard{
		validate.Score(ensembles["cold"], ensembles["zoo"], sopts),
		validate.Score(ensembles["er"], ensembles["zoo"], sopts),
		validate.Score(ensembles["ba"], ensembles["zoo"], sopts),
	}

	return []*Table{
		validateFamilies(count, ensembles),
		validateScorecards(cards),
	}, nil
}

// validateFamilies summarizes each family's streaming aggregates.
func validateFamilies(count int, ensembles map[string]*validate.Ensemble) *Table {
	t := &Table{
		Title: fmt.Sprintf("Ensemble characterization (%d COLD networks vs %d-network references)",
			count, zoo.DefaultSize),
		Notes: []string{
			"streaming aggregates: Welford mean ± std over finite samples (skipped = non-finite)",
		},
		Columns: []string{"family", "topologies", "metric", "mean", "std", "finite", "skipped"},
	}
	for _, fam := range []string{"cold", "zoo", "er", "ba"} {
		ens := ensembles[fam]
		for _, name := range validate.MetricNames() {
			mean, std, finite, skipped, _ := ens.Metric(name)
			t.Rows = append(t.Rows, []string{
				fam, fmt.Sprintf("%d", ens.Count), name,
				fmtF(mean), fmtF(std),
				fmt.Sprintf("%d", finite), fmt.Sprintf("%d", skipped),
			})
		}
	}
	return t
}

// validateScorecards renders the pass verdicts.
func validateScorecards(cards []*validate.Scorecard) *Table {
	t := &Table{
		Title: "Validation scorecards (subject vs zoo reference)",
		Notes: []string{
			"dist_1k/dist_2k: total-variation distance between pooled degree / joint-degree distributions",
			"overlap: fraction of scored metrics whose bootstrap CIs overlap the reference's",
		},
		Columns: []string{"subject", "dist_1k", "dist_2k", "scored", "overlap", "pass"},
	}
	for _, sc := range cards {
		t.Rows = append(t.Rows, []string{
			sc.Subject,
			fmtF(float64(sc.Dist1K)), fmtF(float64(sc.Dist2K)),
			fmt.Sprintf("%d", sc.Scored),
			fmtF(float64(sc.OverlapFrac)),
			fmt.Sprintf("%v", sc.Pass),
		})
	}
	return t
}
