package trace

import (
	"encoding/json"
	"io"
	"sort"

	"rap/internal/gpusim"
)

// chromeEvent is one "complete" event (ph=X) of the Chrome trace-event
// format (chrome://tracing, Perfetto). Timestamps and durations are in
// microseconds, which matches the simulator's native unit.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  //rap:unit us
	Dur  float64           `json:"dur"` //rap:unit us
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// tidFor buckets ops into display rows: training ops, preprocessing,
// communication, host-side work.
func tidFor(tag string) int {
	switch tag {
	case "train":
		return 0
	case "preproc":
		return 1
	case "comm":
		return 2
	case "hostcopy", "cpu":
		return 3
	default:
		return 4
	}
}

// WriteChromeTrace renders the simulation result as a Chrome trace-event
// JSON array: one process per GPU (host ops on pid -1 + NumGPUs), one
// thread row per op class. Load the file in chrome://tracing or Perfetto
// to inspect the co-running timeline visually.
func WriteChromeTrace(w io.Writer, res *gpusim.Result, numGPUs int) error {
	ops := append([]gpusim.OpResult(nil), res.Ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	events := make([]chromeEvent, 0, len(ops))
	for _, o := range ops {
		if o.End <= o.Start {
			continue // barriers and zero-width ops clutter the view
		}
		pid := o.GPU
		if pid < 0 {
			pid = numGPUs // host row
		}
		events = append(events, chromeEvent{
			Name: o.Name,
			Cat:  o.Tag,
			Ph:   "X",
			Ts:   o.Start,
			Dur:  o.End - o.Start,
			PID:  pid,
			TID:  tidFor(o.Tag),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
