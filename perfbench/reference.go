package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"finser"
	"finser/internal/server"
)

// Reference sizes: seeds per workload configuration.
const (
	refSweeps = 8
	refJobs   = 16
	// streamRef keeps reference seeds apart from every benchmark input.
	streamRef = 3
)

// flowOf maps a benchmark job request onto the FlowConfig serd runs for it.
func flowOf(req server.JobRequest) finser.FlowConfig {
	return finser.FlowConfig{
		Vdd:              req.Vdd,
		ProcessVariation: req.ProcessVariation,
		Samples:          req.Samples,
		ItersPerBin:      req.ItersPerBin,
		AlphaBins:        req.AlphaBins,
		ProtonBins:       req.ProtonBins,
		Workers:          req.Workers,
		Seed:             req.Seed,
		FITRelErr:        req.FitRelErr,
	}
}

// makeReference runs every workload configuration in-process over seeds
// no benchmark run uses and writes each Vdd × species FIT's mean and
// seed-to-seed standard deviation.
func makeReference(path string) error {
	ctx := context.Background()
	fits := map[string][]float64{}
	var mu sync.Mutex
	add := func(workload string, fr *finser.FlowResult) {
		mu.Lock()
		defer mu.Unlock()
		for _, sp := range []struct {
			name string
			fit  float64
		}{{"alpha", fr.Alpha.TotalFIT}, {"proton", fr.Proton.TotalFIT}} {
			k := refKey(workload, fr.Vdd, sp.name)
			fits[k] = append(fits[k], sp.fit)
		}
	}
	for k := 0; k < refSweeps; k++ {
		out, err := finser.RunVddSweepCtx(ctx, fig9Config(seedFor(0, streamRef, k)), fig9Vdds)
		if err != nil {
			return err
		}
		for _, fr := range out {
			add("fig9_sweep", fr)
		}
	}
	type job struct {
		workload string
		cfg      finser.FlowConfig
	}
	var jobs []job
	for k := 0; k < refJobs; k++ {
		for i := range fig9Vdds {
			jobs = append(jobs, job{"serve_small", flowOf(serveRequest(0, streamRef, k*len(fig9Vdds)+i))})
		}
		jobs = append(jobs, job{"dist_shard", flowOf(distRequest(0, streamRef, k))})
	}
	// The job configurations pin one flow worker, so two run side by side.
	ch := make(chan job)
	errs := make(chan error, 1) // keeps the first failure; later ones are dropped
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				fr, err := finser.RunFlowCtx(ctx, j.cfg)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					continue
				}
				add(j.workload, fr)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}

	ref := reference{
		Note:    "FIT mean and seed-to-seed SD per workload/Vdd/species; regenerate with: perfbench -make-reference perfbench/reference.json",
		Entries: map[string]refEntry{},
	}
	for k, xs := range fits {
		mean := sum(xs) / float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		ref.Entries[k] = refEntry{FIT: mean, SD: math.Sqrt(ss / float64(len(xs)-1)), N: len(xs)}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write reference: %w", err)
	}
	return nil
}
