// Command perfbench is finser's end-to-end benchmark. One invocation runs
// one workload in a fresh process, checks every output, and prints its
// metrics by name with their units; the last line of standard output is a
// JSON result. With -trace 1 it prints the per-layer ledger instead, each
// layer measured from outside the program: the benchmark times calls into
// the public API, timestamps the public hooks (FlowConfig.BinDone, the job
// SSE stream) and reads the obs registry the program already exports.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload fig9_sweep --seed 1 --seconds 30 --trace 0
//
// Workloads: fig9_sweep (in-process Fig. 9 Vdd sweep), serve_small
// (closed-loop small jobs against an in-process durable serd) and
// dist_shard (a coordinator serd sharding FIT over two worker serds).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// processStart approximates the process start: package initialization runs
// before main, microseconds after exec.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are the end-to-end metrics every untraced run reports.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"fit_rel_err_max", "frac"},
}

// layerMetrics are the per-layer metrics every traced run reports, grouped
// by layer. A layer the workload does not exercise reads 0.
var layerMetrics = []struct{ layer, name, unit string }{
	{"sram/circuit", "sram.characterize_s", "s"},
	{"sram/circuit", "sram.flip_sims_per_qcrit", "count"},
	{"sram/circuit", "circuit.transient_steps_per_flip_sim", "count"},
	{"sram/circuit", "circuit.newton_iters_per_step", "count"},
	{"sram/circuit", "circuit.step_halvings", "count"},
	{"core/transport", "core.fit_s", "s"},
	{"core/transport", "core.strikes", "count"},
	{"core/transport", "core.strike_rate", "1/s"},
	{"core/transport", "core.hit_frac", "frac"},
	{"core/transport", "core.worker_busy_frac", "frac"},
	{"core/transport", "transport.segments_per_ray", "count"},
	{"core adaptive", "core.adaptive.budget_frac", "frac"},
	{"core adaptive", "core.adaptive.unconverged_bins", "count"},
	{"core adaptive", "core.adaptive.early_stops", "count"},
	{"finser", "finser.self_s", "s"},
	{"server/qos", "server.queue_wait_p50_s", "s"},
	{"server/qos", "server.run_p50_s", "s"},
	{"server/qos", "server.overhead_p50_s", "s"},
	{"server/qos", "server.retries", "count"},
	{"server/qos", "server.shed", "count"},
	{"journal/checkpoint/events", "journal.appends_per_job", "count"},
	{"journal/checkpoint/events", "journal.bytes_per_job", "B"},
	{"journal/checkpoint/events", "events.per_job", "count"},
	{"dist", "dist.shard_rtt_p50_s", "s"},
	{"dist", "dist.shards_per_job", "count"},
	{"dist", "dist.retries_steals", "count"},
	{"dist", "dist.merge_s", "s"},
	{"dist", "dist.char_builds_per_job", "count"},
	{"trace", "trace.overhead_s", "s"},
}

// run is one benchmark invocation: its inputs, its checker, and what it
// measured.
type run struct {
	ctx     context.Context
	seed    uint64
	seconds float64
	trace   bool
	work    string // scratch directory inside the checkout
	ref     reference
	check   checker
	values  map[string]float64
	// samples names the sample count behind each percentile metric.
	samples map[string]int
	// load describes the offered load (clients, jobs, sweeps).
	load map[string]any
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// opsFor sizes a run's fixed work: the number of operations of nominal
// duration opSeconds (on the reference machine) that fill the requested
// measuring time, and at least min.
func opsFor(seconds, opSeconds float64, min int) int {
	n := int(seconds/opSeconds + 0.5)
	if n < min {
		return min
	}
	return n
}

// seedFor derives the seed of operation i on an input stream from the
// workload seed (splitmix64 finalizer), so the same workload seed always
// generates the same jobs and distinct operations never share a seed.
func seedFor(seed uint64, stream, i int) uint64 {
	return mix(mix(mix(seed)^uint64(stream))^uint64(i)) >> 1 // keep seeds in int64 range for any JSON reader
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Input streams for seedFor.
const (
	streamTimed = iota + 1
	streamWarm
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// setup boots a workload setupReps times, each on fresh state and followed
// by one untimed warm-up operation, stops every boot but the last, and
// returns that one. setup_s is the median boot-plus-warm-up time; the
// first repetition counts from process start.
func setup[T any](r *run, boot func() (T, error), stop func(T), warm func(T, int) error) (T, error) {
	var reps []float64
	var kept T
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		s, err := boot()
		if err != nil {
			return kept, err
		}
		if err := warm(s, i); err != nil {
			stop(s)
			return kept, fmt.Errorf("warm-up: %w", err)
		}
		reps = append(reps, time.Since(start).Seconds())
		if i < setupReps-1 {
			stop(s)
		} else {
			kept = s
		}
	}
	r.set("setup_s", median(reps))
	return kept, nil
}

var workloads = map[string]func(*run) error{
	"fig9_sweep":  runFig9,
	"serve_small": runServe,
	"dist_shard":  runDist,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: fig9_sweep, serve_small or dist_shard")
		seed     = flag.Uint64("seed", 1, "workload seed; every job seed is derived from it")
		seconds  = flag.Float64("seconds", 30, "measuring time the run's fixed work is sized to")
		trace    = flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
		makeRef  = flag.String("make-reference", "", "write the FIT reference table to this path and exit")
	)
	flag.Parse()
	if *makeRef != "" {
		if err := makeReference(*makeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (fig9_sweep|serve_small|dist_shard), -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	// Every run must end well inside three minutes, even on a stall.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s; aborting")
		os.Exit(3)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 160*time.Second)
	defer cancel()

	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "work"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(filepath.Join(".bench_build", "work"), *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		ctx: ctx, seed: *seed, seconds: *seconds, trace: *trace == 1, work: work, ref: ref,
		values: map[string]float64{}, samples: map[string]int{}, load: map[string]any{},
	}
	err = fn(r)
	os.RemoveAll(work)
	if n, _ := r.load["clients"].(int); err == nil && n > stampMachine().NProc {
		err = fmt.Errorf("%d client goroutines exceed %d CPUs", n, stampMachine().NProc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	r.set("peak_rss_mb", peakRSSMB())
	if err := report(os.Stdout, *workload, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: report: %v\n", *workload, err)
		os.Exit(1)
	}
}

// report prints the human-readable lines, the stamp, and the final JSON
// result line.
func report(w *os.File, workload string, r *run) error {
	metrics := map[string]metric{}
	if r.trace {
		fmt.Fprintf(w, "per-layer ledger: %s (seed %d)\n", workload, r.seed)
		layer := ""
		for _, m := range layerMetrics {
			if m.layer != layer {
				layer = m.layer
				fmt.Fprintf(w, "  [%s]\n", layer)
			}
			v := r.values[m.name]
			fmt.Fprintf(w, "    %-40s %14.6g %s\n", m.name, v, m.unit)
			metrics[m.name] = metric{v, m.unit}
		}
	} else {
		fmt.Fprintf(w, "end-to-end: %s (seed %d)\n", workload, r.seed)
		for _, m := range e2eMetrics {
			v := r.values[m.name]
			fmt.Fprintf(w, "  %-18s %14.6g %s\n", m.name, v, m.unit)
			metrics[m.name] = metric{v, m.unit}
		}
	}
	failFrac := ratio(float64(r.check.failed), float64(r.check.attempted))
	fmt.Fprintf(w, "  %-18s %14.6g frac (%d of %d operations)\n", "fail_frac", failFrac, r.check.failed, r.check.attempted)
	for _, p := range r.check.problems {
		fmt.Fprintln(w, "  check failed:", p)
	}
	// The stamp names the machine, the load shape and the sample count
	// behind every percentile.
	stamp, err := json.Marshal(map[string]any{
		"stamp": map[string]any{
			"workload": workload, "seed": r.seed, "seconds": r.seconds, "trace": r.trace,
			"machine": stampMachine(), "load": r.load, "samples": r.samples, "fail_frac": failFrac,
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(stamp))
	out, err := json.Marshal(map[string]any{
		"correct":   r.check.failed == 0 && r.check.attempted > 0,
		"attempted": max(r.check.attempted, 1),
		"failed":    r.check.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(out))
	return nil
}

// discardGuardLog swallows warn-mode guard logs; violations still count on
// the metrics registry and appear on job event streams.
func discardGuardLog(string, ...any) {}
