package perf

import "fmt"

// maxTracedSeconds caps the timed work of each pass of a traced run; the
// per-layer probes that follow take most of a traced run's time.
const maxTracedSeconds = 3.0

// runTraced is the traced run: the workload's operation once untraced and
// once with spans recorded around each call into a layer (their ratio is
// the tracing overhead), then the per-layer probes on the same world. It
// writes the span file and reports every per-layer metric.
func runTraced(e *env, w workload) (*Result, error) {
	budget := min(e.opts.Seconds, maxTracedSeconds)
	res := &Result{Metrics: make(map[string]Value)}
	add := func(rr *roundResult) {
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		res.Notes = append(res.Notes, rr.notes...)
	}

	plain, err := runRound(e, w, 0, budget, false)
	if err != nil {
		return nil, err
	}
	add(plain)

	e.tr = NewTracer()
	traced, err := runRound(e, w, 0, budget, true)
	if err != nil {
		return nil, err
	}
	defer w.teardown(e)
	add(traced)

	in, err := w.layers(e)
	if err != nil {
		return nil, err
	}
	values, err := runProbes(e, in)
	if err != nil {
		return nil, err
	}
	values["bench.trace_overhead_frac"] = Median(traced.opS)/Median(plain.opS) - 1
	values["bench.build_s"] = e.opts.BuildS
	values["bench.host_slowdown"] = Median(append(plain.slow, traced.slow...))

	path := tracePath(e.opts.OutDir, e.opts.Workload)
	if err := e.tr.WriteFile(path); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s; overhead from %d untraced and %d traced operations",
		e.tr.Len(), path, len(plain.opS), len(traced.opS)))

	for _, m := range PerLayer {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
