package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"finser"
	"finser/internal/breaker"
	"finser/internal/dist"
	"finser/internal/events"
	"finser/internal/obs"
	"finser/internal/retry"
	"finser/internal/server"
)

// serd is one in-process serd: the server core on a fresh durable data
// directory behind a loopback HTTP listener.
type serd struct {
	srv    *server.Server
	reg    *obs.Registry
	hs     *http.Server
	url    string
	dir    string
	served chan struct{}
}

// serdConfig mirrors cmd/serd's defaults: 2 job workers, a 16-deep queue,
// guard warn, a metrics registry, structured job logs, and its retry and
// breaker flags.
func serdConfig(reg *obs.Registry) server.Config {
	return server.Config{
		QueueDepth: server.DefaultQueueDepth,
		Workers:    server.DefaultWorkers,
		Metrics:    reg,
		Guard:      finser.GuardWarn,
		GuardLog:   discardGuardLog,
		Logger:     obs.NewJSONLogger(io.Discard, slog.LevelInfo),
		Retry:      retry.Policy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond},
		Breaker:    breaker.Config{FailureThreshold: 5, Cooldown: 30 * time.Second},
	}
}

// startSerd boots a serd on a fresh data directory under dir: journal open
// and replay (empty), worker pool, and listener.
func startSerd(dir string, cfg server.Config) (*serd, error) {
	dataDir, err := os.MkdirTemp(dir, "serd-")
	if err != nil {
		return nil, err
	}
	cfg.DataDir = dataDir
	srv := server.New(cfg)
	if _, err := srv.Recover(); err != nil {
		return nil, fmt.Errorf("journal recovery: %w", err)
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	d := &serd{
		srv: srv, reg: cfg.Metrics, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), dir: dataDir, served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop drains the server, closes the listener and its connections, and
// waits for the serving goroutine to exit.
func (d *serd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	d.hs.Close()
	<-d.served
}

// walBytes is the current size of the serd's journal file.
func (d *serd) walBytes() float64 {
	fi, err := os.Stat(filepath.Join(d.dir, "journal.wal"))
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// jobTrace is one job as the client saw it.
type jobTrace struct {
	submit, terminal time.Time
	lastCompleted    time.Time // last shard "completed" event
	httpStatus       int
	status           server.JobStatus
	// shardRTT is dispatched → completed per shard attempt, in seconds.
	shardRTT   []float64
	shardsDone int
	err        error
}

func (t *jobTrace) latency() float64 { return t.terminal.Sub(t.submit).Seconds() }

// client is one closed-loop client: it submits a job, follows its SSE
// stream to the terminal event, then fetches the final status.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{http: &http.Client{Timeout: 150 * time.Second}, base: base}
}

func (c *client) runJob(ctx context.Context, req server.JobRequest) jobTrace {
	var t jobTrace
	body, _ := json.Marshal(req) // a struct of scalars cannot fail to marshal
	t.submit = time.Now()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.err = err
		return t
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hr)
	if err != nil {
		t.err = err
		return t
	}
	t.httpStatus = resp.StatusCode
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return t
	}
	if err != nil {
		t.err = fmt.Errorf("submit: %w", err)
		return t
	}
	if err := c.follow(ctx, st.ID, &t); err != nil {
		t.err = err
		return t
	}
	t.status, t.err = c.status(ctx, st.ID)
	return t
}

// follow reads the job's SSE stream until its terminal state event,
// timestamping arrivals.
func (c *client) follow(ctx context.Context, id string, t *jobTrace) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	dispatched := map[string]time.Time{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		var e events.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		switch e.Type {
		case events.TypeShard:
			key := fmt.Sprintf("%s|%s|%d", e.Shard, e.Worker, e.Attempt)
			switch e.State {
			case dist.EventDispatched, dist.EventStolen:
				dispatched[key] = now
			case dist.EventCompleted:
				if d, ok := dispatched[key]; ok {
					t.shardRTT = append(t.shardRTT, now.Sub(d).Seconds())
				}
				t.shardsDone++
				t.lastCompleted = now
			}
		case events.TypeState:
			if server.JobState(e.State).Terminal() {
				t.terminal = now
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return errors.New("events: stream ended before a terminal state")
}

func (c *client) status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// jobProblems checks one finished job: done, not recovered, and both
// species' FIT checks against the workload's reference.
func jobProblems(ref reference, workload string, t jobTrace) []string {
	if t.err != nil {
		return []string{t.err.Error()}
	}
	st := t.status
	var p []string
	if st.State != server.StateDone || st.Result == nil {
		return []string{fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)}
	}
	if st.Recovered {
		p = append(p, fmt.Sprintf("job %s came back recovered", st.ID))
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		p = append(p, fmt.Sprintf("job %s has no start/finish time", st.ID))
	}
	p = append(p, fitProblems(ref, refKey(workload, st.Request.Vdd, "alpha"), st.Result.Alpha)...)
	p = append(p, fitProblems(ref, refKey(workload, st.Request.Vdd, "proton"), st.Result.Proton)...)
	return p
}

// closedLoop runs n jobs from `clients` goroutines, each submitting its next
// job only after the previous one finished.
func closedLoop(ctx context.Context, base string, clients, n int, req func(i int) server.JobRequest) []jobTrace {
	traces := make([]jobTrace, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(base)
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				traces[i] = cl.runJob(ctx, req(i))
			}
		}()
	}
	wg.Wait()
	return traces
}

// serve_small: small single-Vdd PV jobs in a closed loop against a durable
// serd configured like cmd/serd's defaults. Characterization dominates each
// job; the per-job server, journal, checkpoint and event costs recur.
const (
	serveClients = 2
	serveMinJobs = 100
	// serveJobSeconds is the nominal closed-loop time per job on the
	// reference machine (2 clients on 2 workers); it sizes the job count.
	serveJobSeconds = 0.3
)

func serveRequest(seed uint64, stream, i int) server.JobRequest {
	return server.JobRequest{
		Vdd:              fig9Vdds[i%len(fig9Vdds)],
		ProcessVariation: true,
		Samples:          8,
		ItersPerBin:      2000,
		AlphaBins:        6,
		ProtonBins:       8,
		Workers:          1,
		Seed:             seedFor(seed, stream, i),
	}
}

// warmJob runs one untimed job through the HTTP API and requires it done.
func warmJob(ctx context.Context, base string, req server.JobRequest) error {
	t := newClient(base).runJob(ctx, req)
	if t.err != nil {
		return t.err
	}
	if t.status.State != server.StateDone {
		return fmt.Errorf("warm-up job ended %s: %s", t.status.State, t.status.Error)
	}
	return nil
}

func runServe(r *run) error {
	d, err := setup(r,
		func() (*serd, error) { return startSerd(r.work, serdConfig(obs.NewRegistry())) },
		(*serd).stop,
		func(d *serd, i int) error { return warmJob(r.ctx, d.url, serveRequest(r.seed, streamWarm, i)) })
	if err != nil {
		return err
	}
	defer d.stop()

	n := opsFor(r.seconds, serveJobSeconds, serveMinJobs)
	r.load["clients"] = serveClients
	r.load["jobs"] = n
	r.load["loop"] = "closed"
	var ledger *ledgerClock
	if r.trace {
		ledger = startLedger(d.reg)
	}
	wal0 := d.walBytes()
	t := startTimer()
	traces := closedLoop(r.ctx, d.url, serveClients, n, func(i int) server.JobRequest {
		return serveRequest(r.seed, streamTimed, i)
	})
	r.set("wall_s", t.wall())
	r.set("cpu_s", t.cpu())
	checkJobs(r, "serve_small", traces, d.reg)
	if ledger == nil {
		return nil
	}
	ledger.resume()
	before, after := ledger.before[0], d.reg.Snapshot()
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	jobs, runTotal := layerServing(r, traces, delta)
	layerLocalJobs(r, before, after, delta, jobs, runTotal)
	r.set("journal.bytes_per_job", ratio(d.walBytes()-wal0, float64(jobs)))
	r.set("trace.overhead_s", ledger.stop())
	return nil
}

// checkJobs checks every timed job and fresh state (no submission deduped
// onto an earlier job), and sets the latency and FIT-error metrics.
func checkJobs(r *run, workload string, traces []jobTrace, reg *obs.Registry) {
	var lat []float64
	errs := relErrs{}
	for _, tr := range traces {
		p := jobProblems(r.ref, workload, tr)
		r.check.op(p)
		if len(p) == 0 {
			lat = append(lat, tr.latency())
			res := tr.status.Result
			errs.add(res.Vdd, res.Alpha, res.Proton)
		}
	}
	if dd := reg.Counter("serd/jobs/deduped").Value(); dd > 0 {
		r.check.op([]string{fmt.Sprintf("%d submissions deduped: state was not fresh", dd)})
	}
	r.set("latency_p50_s", quantile(lat, 0.5))
	r.set("latency_p90_s", quantile(lat, 0.9))
	r.samples["latency_jobs"] = len(lat)
	r.set("fit_rel_err_max", errs.max())
}

// ledgerClock accounts the traced run's own work: the registry snapshots
// and the ledger derivation. The serving workloads' timed path carries
// serd's metrics registry in both modes, so this is all tracing adds.
type ledgerClock struct {
	before  []obs.Snapshot // one per registry, in startLedger order
	spent   time.Duration
	resumed time.Time
}

func startLedger(regs ...*obs.Registry) *ledgerClock {
	start := time.Now()
	l := &ledgerClock{}
	for _, reg := range regs {
		l.before = append(l.before, reg.Snapshot())
	}
	l.spent = time.Since(start)
	return l
}

func (l *ledgerClock) resume() { l.resumed = time.Now() }

func (l *ledgerClock) stop() float64 { return (l.spent + time.Since(l.resumed)).Seconds() }

// layerServing fills the server/qos, journal and events ledger from per-job
// timestamps (JobStatus times and SSE arrivals) and registry deltas.
// It returns the number of jobs measured and their total run time.
func layerServing(r *run, traces []jobTrace, delta func(string) float64) (int, float64) {
	var queue, runS, overhead []float64
	shed := 0
	for _, t := range traces {
		if t.httpStatus == http.StatusServiceUnavailable || t.httpStatus == http.StatusTooManyRequests {
			shed++
		}
		st := t.status
		if t.err != nil || st.StartedAt == nil || st.FinishedAt == nil {
			continue
		}
		q := st.StartedAt.Sub(st.SubmittedAt).Seconds()
		run := st.FinishedAt.Sub(*st.StartedAt).Seconds()
		queue = append(queue, q)
		runS = append(runS, run)
		overhead = append(overhead, t.latency()-q-run)
	}
	jobs := float64(len(runS))
	r.set("server.queue_wait_p50_s", median(queue))
	r.set("server.run_p50_s", median(runS))
	r.set("server.overhead_p50_s", median(overhead))
	r.samples["server_jobs"] = len(runS)
	r.set("server.retries", delta("serd/retries"))
	r.set("server.shed", float64(shed)+delta("serd/jobs/rejected_full")+delta("serd/jobs/rejected_draining"))
	r.set("journal.appends_per_job", ratio(delta("serd/journal/appends"), jobs))
	r.set("events.per_job", ratio(delta("serd/events/published"), jobs))
	return len(runS), sum(runS)
}

// spanDelta is the time added to span paths with the given prefix between
// two snapshots, and the number of spans added.
func spanDelta(before, after obs.Snapshot, prefix string) (seconds float64, count int64) {
	prev := map[string]obs.SpanSnapshot{}
	for _, s := range before.Spans {
		prev[s.Path] = s
	}
	for _, s := range after.Spans {
		if strings.HasPrefix(s.Path, prefix) {
			seconds += s.TotalSeconds - prev[s.Path].TotalSeconds
			count += s.Count - prev[s.Path].Count
		}
	}
	return seconds, count
}

// layerLocalJobs fills the characterization, core and finser ledger for
// jobs run by serd's local pipeline, from its registry (the flows' Obs).
// finser.self_s is the part of a job's run outside characterize and the
// species FIT stages, per job.
func layerLocalJobs(r *run, before, after obs.Snapshot, delta func(string) float64, jobs int, runTotal float64) {
	charS, charN := spanDelta(before, after, "flow/characterize")
	fitS, _ := spanDelta(before, after, "flow/fit-")
	layerCharCircuit(r, delta, ratio(charS, float64(charN)))
	layerCore(r, delta, fitS, 2*max(jobs, 1))
	r.set("core.adaptive.budget_frac", 1) // flat budget
	r.set("finser.self_s", ratio(runTotal-charS-fitS, float64(jobs)))
}
