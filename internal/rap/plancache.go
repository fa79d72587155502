package rap

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"rap/internal/preproc"
)

// planKey is the deep content hash of everything BuildPlan reads: the
// predictor generation, the cluster, the build options, the model
// config, and the preprocessing plan walked graph by graph (ops are
// identified by id/type/wiring plus their cost-spec at the global batch
// shape, which folds in operator parameters).
func (f *Framework) planKey(opts BuildOptions) string {
	h := sha256.New()
	ff := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	fmt.Fprintf(h, "predgen %d\n", f.predGen)
	fmt.Fprintf(h, "cluster %+v\n", f.Cluster)
	fmt.Fprintf(h, "opts %+v\n", opts)
	fmt.Fprintf(h, "workload ds=%s planidx=%d\n", f.W.Dataset, f.W.PlanIdx)
	fmt.Fprintf(h, "model %+v\n", f.W.Model)
	pl := f.W.Plan
	fmt.Fprintf(h, "plan %q dense=%d sparse=%d tables=%d avglen=%s\n",
		pl.Name, pl.NumDense, pl.NumSparse, pl.NumTables, ff(pl.AvgListLen))
	refShape := preproc.Shape{
		Samples:    f.W.Model.BatchSize * f.Cluster.NumGPUs,
		AvgListLen: pl.AvgListLen,
	}
	for _, g := range pl.Graphs {
		fmt.Fprintf(h, "graph %d %q dense=%q\n", g.ID, g.Name, g.DenseOutput)
		for _, o := range g.Outputs {
			fmt.Fprintf(h, " out table=%d col=%q\n", o.Table, o.Col)
		}
		for _, op := range g.Ops {
			spec := op.Spec(refShape)
			fmt.Fprintf(h, " op %q type=%v in=%q out=%q elems=%s scale=%s\n",
				op.ID(), op.Type(), op.Inputs(), op.Output(),
				ff(spec.Elements), ff(spec.ParamScale))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
