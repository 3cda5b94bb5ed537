// Command serflow runs the end-to-end cross-layer SER flow: cell
// characterization → array Monte-Carlo → FIT integration, for one or more
// supply voltages, printing a per-voltage report and optionally a machine-
// readable JSON dump.
//
// Usage:
//
//	serflow -vdd 0.7,0.8,0.9,1.0,1.1 -samples 200 -iters 50000 -pv
//	serflow -vdd 0.8 -rows 16 -cols 16 -json results.json
//	serflow -vdd 0.8 -progress -metrics m.json  # live ETA + metrics snapshot
//	serflow -vdd 0.8 -pprof localhost:6060      # pprof + /debug/vars expvar
//
// Long runs are interruptible and resumable: Ctrl-C (or SIGTERM) cancels
// the flow cooperatively, flushes whatever completed (partial JSON results,
// metrics snapshot) and exits nonzero. With -checkpoint, every completed
// FIT energy bin is persisted, and rerunning with -resume continues from
// the completed bins, reproducing the uninterrupted result
// bit-identically. The file may also be a serd job checkpoint, written in
// process or by a distributed coordinator:
//
//	serflow -vdd 0.8 -checkpoint run.ck.json -json out.json   # interrupted…
//	serflow -vdd 0.8 -checkpoint run.ck.json -resume -json out.json
//
// A wall-clock budget works the same way: -timeout 30m cancels the flow at
// the deadline, reports which stage it landed in, flushes partial output,
// and exits 124 (as timeout(1) would). Result and metrics files are always
// written atomically, so an interrupted flush never truncates a previous
// good file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"finser"
)

// interruptExitCode is the conventional exit status for a SIGINT-style
// termination (128 + SIGINT); timeoutExitCode matches coreutils timeout(1).
const (
	interruptExitCode = 130
	timeoutExitCode   = 124
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serflow: ")

	var (
		vddList  = flag.String("vdd", "0.8", "comma-separated supply voltages (V)")
		rows     = flag.Int("rows", 9, "array rows")
		cols     = flag.Int("cols", 9, "array columns")
		pv       = flag.Bool("pv", true, "model threshold-voltage process variation")
		samples  = flag.Int("samples", 200, "process-variation Monte-Carlo samples")
		iters    = flag.Int("iters", 30000, "array-MC particles per energy bin")
		relErr   = flag.Float64("fit-rel-err", 0, "adaptive FIT: stop each energy bin once its POF confidence interval is inside this relative tolerance, in (0, 0.5] (0 = flat -iters budget); result-determining, so it is part of the checkpoint fingerprint")
		pattern  = flag.String("pattern", "zeros", "stored data pattern: zeros|ones|checkerboard")
		neut     = flag.Bool("neutron", false, "also estimate neutron-induced (indirect) SER")
		seed     = flag.Uint64("seed", 1, "random seed")
		jsonOut  = flag.String("json", "", "write results as JSON to this file")
		progress = flag.Bool("progress", false, "print live per-stage progress with ETA on stderr")
		metrics  = flag.String("metrics", "", "write a JSON metrics snapshot (counters, histograms, stage spans) to this file")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
		ckPath   = flag.String("checkpoint", "", "persist completed FIT energy bins to this file, an append-only JSON-lines log (one line per bin; a torn final line is dropped on -resume, which reports a file that does not start with a version-2 header as damaged), so the run can be resumed")
		resume   = flag.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS); results do not depend on it")
		timeout  = flag.Duration("timeout", 0, "overall wall-clock budget (e.g. 30m); on expiry partial results are flushed and the exit code is 124")
		guardStr = flag.String("guard", "warn", "physics-invariant enforcement: off|warn|strict (strict fails the run on the first violation)")
	)
	flag.Parse()

	cfg, vdds, err := buildConfig(*vddList, *rows, *cols, *pv, *samples, *iters, *relErr, *pattern, *seed)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Workers = *workers
	cfg.Guard, err = finser.ParseGuardMode(*guardStr)
	if err != nil {
		log.Fatal(err)
	}
	cfg.GuardLog = log.Printf
	if *resume && *ckPath == "" {
		log.Fatal("-resume requires -checkpoint")
	}

	var reg *finser.Metrics
	if *progress || *metrics != "" || *pprof != "" {
		reg = finser.NewMetrics()
		cfg.Obs = reg
	}
	if *metrics != "" {
		// Probe the snapshot path up front so a bad path fails before the
		// (potentially hours-long) run, not after it. The real snapshot is
		// written atomically at flush time.
		f, err := os.Create(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	if *progress {
		cfg.Progress = finser.ProgressPrinter(os.Stderr)
	}
	if *pprof != "" {
		reg.PublishExpvar("finser")
		go func() {
			// The default mux already carries pprof (imported above) and
			// expvar's /debug/vars.
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
		fmt.Printf("pprof + expvar on http://%s/debug/pprof and /debug/vars\n", *pprof)
	}

	if *ckPath != "" {
		var store *finser.CheckpointStore
		var err error
		if *resume {
			store, err = finser.ResumeCheckpoint(*ckPath, cfg, vdds)
		} else {
			store, err = finser.CreateCheckpoint(*ckPath, cfg, vdds)
		}
		if err != nil {
			var corrupt *finser.CheckpointCorruptError
			if errors.As(err, &corrupt) {
				log.Printf("%v", err)
				log.Fatalf("the checkpoint file is damaged and cannot be resumed; "+
					"delete %s and rerun without -resume to start fresh", corrupt.Path)
			}
			log.Fatal(err)
		}
		cfg.Checkpoint = store
		if *resume {
			fmt.Printf("resuming from checkpoint %s (%d stage(s) restored)\n",
				*ckPath, len(store.Stages()))
		}
	}

	// Ctrl-C / SIGTERM cancel the flow cooperatively: worker loops stop
	// within milliseconds, partial results and metrics are flushed below,
	// and a second signal kills the process the hard way (NotifyContext
	// restores default handling once the context is cancelled).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// -timeout layers a wall-clock deadline under the signal context; the
	// engine reports which stage and bin the deadline landed in.
	if *timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, *timeout)
		defer cancelTimeout()
	}

	fmt.Printf("cross-layer SER flow: %dx%d SRAM array, 14nm SOI FinFET, PV=%v (%d samples), %d particles/bin\n\n",
		*rows, *cols, *pv, *samples, *iters)
	fmt.Printf("%6s  %14s %12s %12s %9s  %14s %12s %12s %9s\n",
		"Vdd", "alphaFIT", "alphaSEU", "alphaMBU", "MBU/SEU%", "protonFIT", "protonSEU", "protonMBU", "MBU/SEU%")

	start := time.Now()
	results, err := finser.RunVddSweepCtx(ctx, cfg, vdds)
	for _, res := range results {
		fmt.Printf("%6.2f  %14.5g %12.5g %12.5g %9.3f  %14.5g %12.5g %12.5g %9.3f\n",
			res.Vdd,
			res.Alpha.TotalFIT, res.Alpha.SEUFIT, res.Alpha.MBUFIT, res.Alpha.MBUToSEU,
			res.Proton.TotalFIT, res.Proton.SEUFIT, res.Proton.MBUFIT, res.Proton.MBUToSEU)
	}
	fmt.Printf("%6s  (%d voltage(s) in %s)\n", "", len(results), time.Since(start).Round(time.Millisecond))

	// fail ends the run on a stage error, flushing the completed voltages
	// first: an interrupt exits 130 and a deadline 124, each with a resume
	// hint; any other failure exits 1. The error is a *SweepError naming
	// the voltage and the stage it landed in.
	// The voltages share each strike, so an interrupt mid-FIT completes no
	// voltage and flushes none; every bin that finished, at any voltage, is
	// in the checkpoint. Only a failed characterization keeps the voltages
	// before it.
	fail := func(err error) {
		flush(results, reg, *jsonOut, *metrics)
		code := 0
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// The wrapped error names the stage (and bin) the budget expired
			// in, e.g. "core: fit/alpha bin 7: context deadline exceeded".
			log.Printf("timed out after %s: %v", *timeout, err)
			code = timeoutExitCode
		case errors.Is(err, context.Canceled):
			log.Printf("interrupted: %v", err)
			code = interruptExitCode
		default:
			log.Fatal(err)
		}
		if *ckPath != "" {
			log.Printf("rerun with -checkpoint %s -resume to continue", *ckPath)
		}
		os.Exit(code)
	}
	if err != nil {
		fail(err)
	}

	if *neut {
		// The neutron stage runs once over every voltage's swept
		// characterization, with the same engine configuration, context and
		// checkpoint store as the alpha and proton stages; a failure is a
		// *SweepError naming its voltage.
		nFITs, err := finser.NeutronFITCtx(ctx, cfg, results)
		if err != nil {
			fail(err)
		}
		for i, res := range results {
			n := nFITs[i]
			fmt.Printf("%6.2f  neutron: total=%.5g±%.2g SEU=%.5g MBU=%.5g MBU/SEU=%.3f%%\n",
				res.Vdd, n.TotalFIT, n.TotalFITErr, n.SEUFIT, n.MBUFIT, n.MBUToSEU)
		}
	}

	flush(results, reg, *jsonOut, *metrics)
}

// flush writes whatever results exist (possibly none) to the -json file
// and snapshots metrics — shared by the happy path and the interrupted /
// failed exits so partial work is never discarded silently. Both files are
// written atomically (temp file + rename), so a crash or signal landing
// mid-flush can never leave a truncated half-JSON file where a previous
// good result used to be.
func flush(results []*finser.FlowResult, reg *finser.Metrics, jsonOut, metricsPath string) {
	if jsonOut != "" {
		err := writeFileAtomic(jsonOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(results)
		})
		if err != nil {
			log.Print(err)
		} else {
			fmt.Printf("\nwrote %s (%d voltage(s))\n", jsonOut, len(results))
		}
	}
	if metricsPath != "" {
		if err := writeFileAtomic(metricsPath, reg.WriteJSON); err != nil {
			log.Print(err)
		} else {
			fmt.Printf("wrote metrics snapshot %s\n", metricsPath)
		}
	}
}

// writeFileAtomic writes via a temp file in the destination directory and
// renames it into place, so readers only ever observe a complete file.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once the rename has happened
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// CreateTemp's 0600 would tighten what os.Create used to produce here;
	// restore the conventional mode (still subject to the umask at create
	// time for the probe file this replaces).
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// buildConfig validates the raw flag values up front — bad budgets or array
// dimensions fail here with a clear message instead of panicking (or
// silently misbehaving) layers deeper.
func buildConfig(vddList string, rows, cols int, pv bool, samples, iters int, relErr float64, pattern string, seed uint64) (finser.FlowConfig, []float64, error) {
	vdds, err := parseVdds(vddList)
	if err != nil {
		return finser.FlowConfig{}, nil, err
	}
	if rows <= 0 || cols <= 0 {
		return finser.FlowConfig{}, nil, fmt.Errorf("-rows/-cols must be positive, got %d×%d", rows, cols)
	}
	if samples <= 0 {
		return finser.FlowConfig{}, nil, fmt.Errorf("-samples must be positive, got %d", samples)
	}
	if iters <= 0 {
		return finser.FlowConfig{}, nil, fmt.Errorf("-iters must be positive, got %d", iters)
	}
	if relErr != 0 && !(relErr > 0 && relErr <= 0.5) {
		return finser.FlowConfig{}, nil, fmt.Errorf("-fit-rel-err must be in (0, 0.5], got %g", relErr)
	}
	pat, ok := finser.ParseDataPattern(pattern)
	if !ok {
		return finser.FlowConfig{}, nil, fmt.Errorf("-pattern must be zeros, ones or checkerboard, got %q", pattern)
	}
	return finser.FlowConfig{
		Rows:             rows,
		Cols:             cols,
		ProcessVariation: pv,
		Samples:          samples,
		ItersPerBin:      iters,
		FITRelErr:        relErr,
		Pattern:          pat,
		Seed:             seed,
	}, vdds, nil
}

// parseVdds reads the -vdd list; every voltage must be positive and
// finite, so a bad entry fails before any voltage runs.
func parseVdds(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad vdd %q: %v", p, err)
		}
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("-vdd must be positive and finite, got %g", v)
		}
		out = append(out, v)
	}
	return out, nil
}
