package main

import (
	"time"

	"finser/internal/breaker"
	"finser/internal/dist"
	"finser/internal/obs"
	"finser/internal/server"
)

// dist_shard: one client runs jobs back to back against a coordinator serd
// that shards each job's FIT by energy bin × species over two worker serds
// on loopback (the EXPERIMENTS 2-worker recipe). Every worker builds its
// own characterization of each job.
const (
	distSamples  = 40
	distIters    = 100_000
	distShardBin = 2
	distMinJobs  = 3
	// distJobSeconds sizes the job count: about 4 s per job on the
	// reference machine, rounded down so a 30 s run holds 8 jobs, which
	// steadies the run-to-run spread of the per-job percentiles.
	distJobSeconds = 3.75
)

func distRequest(seed uint64, stream, i int) server.JobRequest {
	return server.JobRequest{
		Vdd:              0.8,
		ProcessVariation: true,
		Samples:          distSamples,
		ItersPerBin:      distIters,
		Workers:          1,
		Seed:             seedFor(seed, stream, i),
	}
}

// cluster is a coordinator serd over two worker serds, each on its own
// fresh data directory.
type cluster struct {
	coord   *serd
	workers []*serd
}

func startCluster(dir string) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for i := 0; i < 2; i++ {
		w, err := startSerd(dir, serdConfig(obs.NewRegistry()))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
		urls = append(urls, w.url)
	}
	reg := obs.NewRegistry()
	co, err := dist.New(dist.Config{
		Workers:       urls,
		ShardBins:     distShardBin,
		ShardTimeout:  10 * time.Minute,
		ShardAttempts: 4,
		StealAfter:    30 * time.Second,
		Metrics:       reg,
		Breaker:       breaker.Config{FailureThreshold: 5, Cooldown: 30 * time.Second},
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	cfg := serdConfig(reg)
	cfg.Distributor = co
	if c.coord, err = startSerd(dir, cfg); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) stop() {
	if c.coord != nil {
		c.coord.stop()
	}
	for _, w := range c.workers {
		w.stop()
	}
}

func runDist(r *run) error {
	c, err := setup(r,
		func() (*cluster, error) { return startCluster(r.work) },
		(*cluster).stop,
		func(c *cluster, i int) error {
			req := serveRequest(r.seed, streamWarm, i)
			req.Vdd = 0.8
			return warmJob(r.ctx, c.coord.url, req)
		})
	if err != nil {
		return err
	}
	defer c.stop()

	n := opsFor(r.seconds, distJobSeconds, distMinJobs)
	r.load["clients"] = 1
	r.load["jobs"] = n
	r.load["loop"] = "closed"
	r.load["worker_serds"] = len(c.workers)
	r.load["shard_bins"] = distShardBin
	var ledger *ledgerClock
	if r.trace {
		ledger = startLedger(c.coord.reg, c.workers[0].reg, c.workers[1].reg)
	}
	wal0 := c.coord.walBytes()
	t := startTimer()
	traces := closedLoop(r.ctx, c.coord.url, 1, n, func(i int) server.JobRequest {
		return distRequest(r.seed, streamTimed, i)
	})
	r.set("wall_s", t.wall())
	r.set("cpu_s", t.cpu())
	checkJobs(r, "dist_shard", traces, c.coord.reg)
	if ledger == nil {
		return nil
	}
	ledger.resume()
	after := []obs.Snapshot{c.coord.reg.Snapshot(), c.workers[0].reg.Snapshot(), c.workers[1].reg.Snapshot()}
	coordDelta := func(name string) float64 {
		return float64(after[0].Counters[name] - ledger.before[0].Counters[name])
	}
	workerDelta := func(name string) float64 {
		d := 0.0
		for i := 1; i < len(after); i++ {
			d += float64(after[i].Counters[name] - ledger.before[i].Counters[name])
		}
		return d
	}
	var charS, fitS float64
	var charN int64
	for i := 1; i < len(after); i++ {
		s, cnt := spanDelta(ledger.before[i], after[i], "flow/characterize")
		charS, charN = charS+s, charN+cnt
		s, _ = spanDelta(ledger.before[i], after[i], "flow/shard-")
		fitS += s
	}
	jobs, _ := layerServing(r, traces, coordDelta)
	layerCharCircuit(r, workerDelta, ratio(charS, float64(charN)))
	layerCore(r, workerDelta, fitS, 2*max(jobs, 1))
	r.set("core.adaptive.budget_frac", 1) // flat budget
	r.set("journal.bytes_per_job", ratio(c.coord.walBytes()-wal0, float64(jobs)))

	var rtt, merge []float64
	shards := 0
	for _, tr := range traces {
		rtt = append(rtt, tr.shardRTT...)
		shards += tr.shardsDone
		if !tr.lastCompleted.IsZero() && !tr.terminal.IsZero() {
			merge = append(merge, tr.terminal.Sub(tr.lastCompleted).Seconds())
		}
	}
	r.set("dist.shard_rtt_p50_s", median(rtt))
	r.samples["dist_shard_rtts"] = len(rtt)
	r.set("dist.shards_per_job", ratio(float64(shards), float64(jobs)))
	r.set("dist.retries_steals", coordDelta("dist/shards/retried")+coordDelta("dist/shards/stolen"))
	r.set("dist.merge_s", median(merge))
	r.set("dist.char_builds_per_job", ratio(workerDelta("sram.variation_samples"), float64(distSamples*jobs)))
	r.set("trace.overhead_s", ledger.stop())
	return nil
}
