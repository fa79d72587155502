package preproc

// The cost-model constants and per-op cost factor, for the latency
// oracle in package preproc_test (it also drives costmodel's
// predictor, which imports this package).
const (
	WarpSize       = warpSize
	ElemsPerThread = elemsPerThread
	WarpsSaturate  = warpsSaturate
	BaseThroughput = baseThroughput
	MinKernelWork  = minKernelWork
)

// CostFactor is OpType.costFactor.
func CostFactor(t OpType) float64 { return t.costFactor() }
