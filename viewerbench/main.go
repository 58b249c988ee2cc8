// Command viewerbench is the end-to-end benchmark of the simulated Hermes
// service: many browsers and one or two servers on one virtual clock and
// one simulated network, driven by seeded open-loop arrivals. It measures
// the viewer path (server emit → netsim → client reassembly → buffer →
// playout) and the session control path, checks the program's outputs on
// every episode, and prints one JSON result line.
//
//	viewerbench --workload lecture_unicast --seed 7 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it also
// runs one traced episode through layer probes and reports the per-layer
// ledger instead. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// minSetups is how many world builds a run times at least; setup_s is
// their median.
const minSetups = 15

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the benchmark's one-line report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viewerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "lecture_unicast", "workload to run")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "wall seconds of untraced episodes to measure")
	trace := fs.Int("trace", 0, "1 = add a traced episode and report the per-layer ledger")
	spansDir := fs.String("spans-dir", ".bench_build/viewerbench", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "viewerbench: unknown workload %q\n", *name)
		return 2
	}
	p := wl.plan(*seed)
	if pct, ok := supportedPercentile(len(p.sessions)); !ok || pct < 95 {
		fmt.Fprintf(stderr, "viewerbench: %d sessions cannot support a p95\n", len(p.sessions))
		return 2
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	eps, setups, err := untraced(p, time.Duration(*seconds*float64(time.Second)), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "viewerbench: %v\n", err)
		return 1
	}
	for _, o := range eps {
		res.Attempted += o.sessions()
		res.Failed += o.failed
	}
	var traced *outcome
	if *trace == 1 {
		runtime.GC()
		w, err := buildWorld(p, true)
		if err != nil {
			fmt.Fprintf(stderr, "viewerbench: %v\n", err)
			return 1
		}
		traced = w.run()
		res.Attempted += traced.sessions()
		res.Failed += traced.failed
		path, err := w.tr.writeSpans(*spansDir, p.workload+".spans.tsv")
		if err != nil {
			fmt.Fprintf(stderr, "viewerbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "viewerbench: %d spans written to %s\n", traced.ledger.spans, path)
		eps = append(eps, traced)
	}
	for _, o := range eps {
		for what, n := range map[string]int{"startup": len(o.startupMS), "connect": len(o.connectMS)} {
			if pct, ok := supportedPercentile(n); !ok || pct < 95 {
				o.failures = append(o.failures, fmt.Sprintf("%d %s samples cannot support a p95", n, what))
			}
		}
		for _, f := range o.failures {
			res.Correct = false
			fmt.Fprintf(stderr, "viewerbench: check failed: %s\n", f)
		}
	}
	if res.Correct {
		if traced == nil {
			e2e := medians(eps, (*outcome).endToEnd)
			e2e["setup_s"] = median(mapSetups(setups, func(s setupTimes) time.Duration { return s.total() })) / 1000
			for k, v := range e2e {
				res.Metrics[k] = metric{v, units[k]}
			}
		} else {
			timed := eps[:len(eps)-1]
			per := traced.layers()
			for k, v := range medians(timed, (*outcome).runtimeLayer) {
				per[k] = v
			}
			per["setup.store_ms"] = median(mapSetups(setups, func(s setupTimes) time.Duration { return s.store }))
			per["setup.servers_ms"] = median(mapSetups(setups, func(s setupTimes) time.Duration { return s.servers }))
			per["setup.browsers_ms"] = median(mapSetups(setups, func(s setupTimes) time.Duration { return s.browsers }))
			base := median(walls(timed))
			per["trace.overhead_pct"] = 100 * (traced.wall.Seconds() - base) / base
			per["sim.replay_divergence_frames"] = float64(abs(traced.plays - timed[0].plays))
			for k, v := range per {
				res.Metrics[k] = metric{v, units[k]}
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "viewerbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// untraced runs fresh untraced episodes of p for about budget of wall time
// (at least three), then extra set-ups until minSetups builds were timed.
// It returns the episodes and the set-up times of every build, and reports
// each episode on progress.
func untraced(p *plan, budget time.Duration, progress io.Writer) ([]*outcome, []setupTimes, error) {
	var eps []*outcome
	var setups []setupTimes
	start := time.Now()
	var last time.Duration
	for len(eps) < 3 || time.Since(start)+last/2 < budget {
		t0 := time.Now()
		runtime.GC()
		w, err := buildWorld(p, false)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, w.out.setup)
		o := w.run()
		eps = append(eps, o)
		last = time.Since(t0)
		fmt.Fprintf(progress, "viewerbench: episode %d: %d frames in %.3f s (%.0f frames/s), %d sessions\n",
			len(eps), o.plays, o.wall.Seconds(), float64(o.plays)/o.wall.Seconds(), o.sessions())
	}
	for len(setups) < minSetups {
		runtime.GC()
		w, err := buildWorld(p, false)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, w.out.setup)
	}
	return eps, setups, nil
}

// medians applies f to every episode and returns each metric's median.
func medians(eps []*outcome, f func(*outcome) map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, o := range eps {
		for k, v := range f(o) {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// mapSetups extracts one step of every set-up, in milliseconds.
func mapSetups(setups []setupTimes, f func(setupTimes) time.Duration) []float64 {
	out := make([]float64, len(setups))
	for i, s := range setups {
		out[i] = ms(f(s))
	}
	return out
}

func walls(eps []*outcome) []float64 {
	out := make([]float64, len(eps))
	for i, o := range eps {
		out[i] = o.wall.Seconds()
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
