// Command serload is an open-loop load generator for serd: it submits SER
// jobs at a fixed arrival rate regardless of how fast the server finishes
// them (the honest way to measure a queueing system — closed-loop clients
// hide queueing delay by waiting), consumes each accepted job's SSE event
// stream to observe its terminal state the moment it happens, and writes a
// JSON report of client-observed admission-to-done latency percentiles,
// shed rate, and event throughput, alongside the server's own
// admission-to-done histogram scraped from /metrics.
//
// Usage:
//
//	serload -addr http://localhost:8080 -rate 5 -duration 30s \
//	        -mix tiny=3,small=1 -out report.json
//
// The job mix is a weighted set of preset workload classes:
//
//	tiny   samples=8,  iters_per_bin=300,  alpha_bins=3, proton_bins=4
//	small  samples=30, iters_per_bin=2000, alpha_bins=6, proton_bins=8
//
// Every submission gets a distinct seed, so checkpoint fingerprints never
// collide and each job is real work.
//
// Multi-tenant runs: -tenants assigns traffic to named tenants with a
// per-tenant QoS-class mix, e.g.
//
//	serload -tenants "ui=interactive:1,bulk=batch:8" -rate 10 -duration 30s
//
// Each submission then carries its tenant in the X-Tenant header and its
// class (interactive|batch) in the body, and the report breaks latency
// percentiles out per tenant × class plus per-tenant shed (503) and
// over-budget (429) counts — the numbers that show whether serd's
// weighted-fair queue actually isolated the interactive tenant from the
// batch flood. Without -tenants every job is anonymous batch traffic and
// the report keeps its single-tenant shape.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"finser/internal/obs"
)

// jobClass is one preset workload in the mix.
type jobClass struct {
	name   string
	weight int
	body   map[string]any
}

var presets = map[string]map[string]any{
	"tiny": {
		"vdd": 0.7, "samples": 8, "iters_per_bin": 300,
		"alpha_bins": 3, "proton_bins": 4, "workers": 1,
	},
	"small": {
		"vdd": 0.7, "samples": 30, "iters_per_bin": 2000,
		"alpha_bins": 6, "proton_bins": 8, "workers": 1,
	},
}

// parseMix parses "tiny=3,small=1" into weighted classes.
func parseMix(s string) ([]jobClass, error) {
	var out []jobClass
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, "=")
		w := 1
		if found {
			n, err := strconv.Atoi(wstr)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad weight in %q", part)
			}
			w = n
		}
		preset, ok := presets[name]
		if !ok {
			return nil, fmt.Errorf("unknown job class %q (want tiny|small)", name)
		}
		out = append(out, jobClass{name: name, weight: w, body: preset})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return out, nil
}

// pickClass draws one class by weight.
func pickClass(rng *rand.Rand, classes []jobClass) jobClass {
	total := 0
	for _, c := range classes {
		total += c.weight
	}
	n := rng.Intn(total)
	for _, c := range classes {
		if n < c.weight {
			return c
		}
		n -= c.weight
	}
	return classes[len(classes)-1]
}

// tenantArm is one tenant × QoS-class traffic source. tenant "" means
// anonymous (no X-Tenant header, no class field — the single-tenant shape).
type tenantArm struct {
	tenant   string
	qosClass string
	weight   int
}

// parseTenants parses the -tenants syntax: comma-separated
// tenant=class:weight[+class:weight] entries, e.g.
// "ui=interactive:1,bulk=batch:8". A bare class (no :weight) weighs 1.
func parseTenants(s string) ([]tenantArm, error) {
	if strings.TrimSpace(s) == "" {
		return []tenantArm{{weight: 1}}, nil
	}
	var arms []tenantArm
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, mix, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed tenant entry %q (want tenant=class:weight+...)", entry)
		}
		for _, part := range strings.Split(mix, "+") {
			class, wstr, weighted := strings.Cut(part, ":")
			if class != "interactive" && class != "batch" {
				return nil, fmt.Errorf("tenant %s: unknown class %q (want interactive or batch)", name, class)
			}
			w := 1
			if weighted {
				n, err := strconv.Atoi(wstr)
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("tenant %s: bad weight in %q", name, part)
				}
				w = n
			}
			arms = append(arms, tenantArm{tenant: name, qosClass: class, weight: w})
		}
	}
	if len(arms) == 0 {
		return nil, fmt.Errorf("empty -tenants")
	}
	return arms, nil
}

// pickArm draws one tenant × class source by weight.
func pickArm(rng *rand.Rand, arms []tenantArm) tenantArm {
	total := 0
	for _, a := range arms {
		total += a.weight
	}
	n := rng.Intn(total)
	for _, a := range arms {
		if n < a.weight {
			return a
		}
		n -= a.weight
	}
	return arms[len(arms)-1]
}

// outcome is one accepted job's observed end.
type outcome struct {
	class    string // workload preset (tiny/small)
	tenant   string // "" for anonymous traffic
	qosClass string // "" (anonymous) | interactive | batch
	state    string
	errMsg   string  // terminal error text for failed/canceled jobs
	latency  float64 // admission (POST sent) to terminal event, seconds
	events   int64
}

// failureReason buckets a failed job's terminal error into the categories
// an operator acts on differently: a "partial" distributed FIT (some
// shards never completed — look at the worker pool), a blown "deadline"
// (raise timeout_seconds or shrink the job), a "guard" invariant trip
// (physics bug), or "other".
func failureReason(errMsg string) string {
	switch {
	case strings.Contains(errMsg, "shard(s) missing"):
		return "partial"
	case strings.Contains(errMsg, "deadline"):
		return "deadline"
	case strings.Contains(errMsg, "invariant"):
		return "guard"
	default:
		return "other"
	}
}

// latencySummary is the report's percentile block (nearest-rank on the
// client-observed samples).
type latencySummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
}

func summarize(lats []float64) latencySummary {
	if len(lats) == 0 {
		return latencySummary{}
	}
	sort.Float64s(lats)
	sum := 0.0
	for _, v := range lats {
		sum += v
	}
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(lats)))) - 1
		if i < 0 {
			i = 0
		}
		return lats[i]
	}
	return latencySummary{
		Count: len(lats),
		Mean:  sum / float64(len(lats)),
		P50:   rank(0.50),
		P95:   rank(0.95),
		P99:   rank(0.99),
		Max:   lats[len(lats)-1],
	}
}

// report is the JSON artifact serload writes.
type report struct {
	GeneratedBy     string  `json:"generated_by"`
	Addr            string  `json:"addr"`
	RatePerSec      float64 `json:"rate_per_sec"`
	DurationSeconds float64 `json:"duration_seconds"`
	Mix             string  `json:"mix"`
	WallSeconds     float64 `json:"wall_seconds"`

	Submitted int64 `json:"submitted"`
	Accepted  int64 `json:"accepted"`
	// Shed counts submissions that stayed rejected after the resubmit
	// budget was spent — terminal sheds. Resubmitted counts the 503s that
	// were retried after honoring Retry-After; a job that sheds, retries,
	// and lands contributes to Resubmitted and Accepted, not Shed.
	Shed        int64   `json:"shed"`
	Resubmitted int64   `json:"resubmitted"`
	Errors      int64   `json:"errors"`
	ShedRate    float64 `json:"shed_rate"`

	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// FailedReasons breaks Failed down by terminal error category
	// (partial | deadline | guard | other) — shed is already its own
	// counter above, so non-OK outcomes are never lumped together.
	FailedReasons map[string]int `json:"failed_reasons,omitempty"`

	// Rejected429 counts submissions refused by per-tenant policing (rate
	// or quota) — distinct from Shed, which is global capacity. serload
	// treats a 429 as terminal for that arrival: the tenant is over its
	// budget and hammering the server would only confirm the limiter works.
	Rejected429 int64 `json:"rejected_429,omitempty"`

	EventsConsumed int64   `json:"events_consumed"`
	EventsPerSec   float64 `json:"events_per_sec"`

	Latency  latencySummary            `json:"latency"`
	PerClass map[string]latencySummary `json:"per_class"`

	// PerTenant breaks the run out per tenant (only with -tenants): latency
	// percentiles per QoS class plus the tenant's own shed/429 counts — the
	// isolation evidence a fairness experiment reads.
	Tenants   string                   `json:"tenants,omitempty"`
	PerTenant map[string]*tenantReport `json:"per_tenant,omitempty"`

	// ServerAdmissionToDone is serd's own admission-to-done histogram
	// (bucket counts plus p50/p95/p99) scraped from /metrics at the end of
	// the run — the server-side view to compare the client-observed
	// percentiles against.
	ServerAdmissionToDone *obs.HistogramSnapshot `json:"server_admission_to_done,omitempty"`
}

// tenantReport is one tenant's slice of the run.
type tenantReport struct {
	Accepted    int64 `json:"accepted"`
	Shed        int64 `json:"shed"`
	Rejected429 int64 `json:"rejected_429"`
	Done        int   `json:"done"`
	// PerClass is keyed by QoS class (interactive/batch) — the
	// per-tenant latency percentiles the fairness experiment compares.
	PerClass map[string]latencySummary `json:"per_class,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serload: ")

	var (
		addr       = flag.String("addr", "http://localhost:8080", "serd base URL")
		rate       = flag.Float64("rate", 2, "open-loop arrival rate, jobs/second")
		duration   = flag.Duration("duration", 15*time.Second, "how long to keep submitting")
		mixStr     = flag.String("mix", "tiny=3,small=1", "weighted job mix, e.g. tiny=3,small=1")
		tenantsStr = flag.String("tenants", "", `per-tenant QoS traffic mix, e.g. "ui=interactive:1,bulk=batch:8"; empty = anonymous single-tenant traffic`)
		outPath    = flag.String("out", "", "report file (default stdout)")
		seed       = flag.Int64("seed", 1, "mix-choice and job-seed RNG seed")
		jobWait    = flag.Duration("job-wait", 5*time.Minute, "how long to wait for in-flight jobs after the last submission")
		resubmit   = flag.Int("resubmit-budget", 2, "how many times one shed (503) submission honors Retry-After and resubmits before counting as a terminal shed; 0 never resubmits")
	)
	flag.Parse()

	classes, err := parseMix(*mixStr)
	if err != nil {
		log.Fatal(err)
	}
	arms, err := parseTenants(*tenantsStr)
	if err != nil {
		log.Fatal(err)
	}
	if *rate <= 0 {
		log.Fatal("-rate must be positive")
	}

	rng := rand.New(rand.NewSource(*seed))
	var (
		submitted, accepted, shed, resubmitted, rejected429, errs, eventsTotal atomic.Int64

		mu          sync.Mutex
		outcomes    []outcome
		tenantSheds = map[string]*tenantReport{} // per-tenant shed/429, keyed by tenant
		wg          sync.WaitGroup
	)
	tenantRep := func(tenant string) *tenantReport {
		tr, ok := tenantSheds[tenant]
		if !ok {
			tr = &tenantReport{}
			tenantSheds[tenant] = tr
		}
		return tr
	}

	start := time.Now()
	interval := time.Duration(float64(time.Second) / *rate)
	ticker := time.NewTicker(interval)
	deadline := time.Now().Add(*duration)
	jobSeed := uint64(*seed)
	for time.Now().Before(deadline) {
		<-ticker.C
		cls := pickClass(rng, classes)
		arm := pickArm(rng, arms)
		jobSeed++
		submitted.Add(1)
		wg.Add(1)
		go func(cls jobClass, arm tenantArm, seed uint64) {
			defer wg.Done()
			o, status, retries := runOne(*addr, cls, arm, seed, *resubmit)
			resubmitted.Add(retries)
			switch status {
			case http.StatusAccepted, http.StatusOK:
				accepted.Add(1)
				eventsTotal.Add(o.events)
				mu.Lock()
				if arm.tenant != "" {
					tenantRep(arm.tenant).Accepted++
				}
				outcomes = append(outcomes, o)
				mu.Unlock()
			case http.StatusServiceUnavailable:
				shed.Add(1)
				if arm.tenant != "" {
					mu.Lock()
					tenantRep(arm.tenant).Shed++
					mu.Unlock()
				}
			case http.StatusTooManyRequests:
				rejected429.Add(1)
				if arm.tenant != "" {
					mu.Lock()
					tenantRep(arm.tenant).Rejected429++
					mu.Unlock()
				}
			default:
				errs.Add(1)
			}
		}(cls, arm, jobSeed)
	}
	ticker.Stop()

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(*jobWait):
		log.Printf("gave up waiting for in-flight jobs after %s", *jobWait)
	}
	wall := time.Since(start).Seconds()

	rep := report{
		GeneratedBy:     "serload",
		Addr:            *addr,
		RatePerSec:      *rate,
		DurationSeconds: duration.Seconds(),
		Mix:             *mixStr,
		WallSeconds:     wall,
		Submitted:       submitted.Load(),
		Accepted:        accepted.Load(),
		Shed:            shed.Load(),
		Resubmitted:     resubmitted.Load(),
		Rejected429:     rejected429.Load(),
		Errors:          errs.Load(),
		EventsConsumed:  eventsTotal.Load(),
		PerClass:        map[string]latencySummary{},
		Tenants:         *tenantsStr,
	}
	if rep.Submitted > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Submitted)
	}
	if wall > 0 {
		rep.EventsPerSec = float64(rep.EventsConsumed) / wall
	}
	var all []float64
	perClass := map[string][]float64{}
	perTenantClass := map[string]map[string][]float64{} // tenant → QoS class → latencies
	for _, o := range outcomes {
		switch o.state {
		case "done":
			rep.Done++
			all = append(all, o.latency)
			perClass[o.class] = append(perClass[o.class], o.latency)
			if o.tenant != "" {
				tc, ok := perTenantClass[o.tenant]
				if !ok {
					tc = map[string][]float64{}
					perTenantClass[o.tenant] = tc
				}
				tc[o.qosClass] = append(tc[o.qosClass], o.latency)
				tenantRep(o.tenant).Done++
			}
		case "failed":
			rep.Failed++
			if rep.FailedReasons == nil {
				rep.FailedReasons = map[string]int{}
			}
			rep.FailedReasons[failureReason(o.errMsg)]++
		case "canceled":
			rep.Canceled++
		}
	}
	rep.Latency = summarize(all)
	for name, lats := range perClass {
		rep.PerClass[name] = summarize(lats)
	}
	if len(tenantSheds) > 0 {
		rep.PerTenant = tenantSheds
		for tenant, tc := range perTenantClass {
			tr := tenantRep(tenant)
			tr.PerClass = map[string]latencySummary{}
			for class, lats := range tc {
				tr.PerClass[class] = summarize(lats)
			}
		}
	}
	rep.ServerAdmissionToDone = scrapeServerHistogram(*addr)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("report written to %s (accepted=%d shed=%d p50=%.3gs p99=%.3gs)",
		*outPath, rep.Accepted, rep.Shed, rep.Latency.P50, rep.Latency.P99)
}

// runOne submits one job — honoring Retry-After on 503 up to budget
// resubmissions — and, when accepted, follows its SSE stream to the
// terminal state. It returns the final HTTP submit status (0 on a
// transport error) and how many resubmissions it spent. A 429 (the
// tenant's own rate/quota budget, not server capacity) is terminal
// immediately: resubmitting over-budget traffic would just measure the
// limiter again.
func runOne(addr string, cls jobClass, arm tenantArm, seed uint64, budget int) (outcome, int, int64) {
	body := make(map[string]any, len(cls.body)+2)
	for k, v := range cls.body {
		body[k] = v
	}
	body["seed"] = seed
	if arm.qosClass != "" {
		body["class"] = arm.qosClass
	}
	payload, _ := json.Marshal(body)
	fail := outcome{class: cls.name, tenant: arm.tenant, qosClass: arm.qosClass}

	t0 := time.Now()
	var resp *http.Response
	var retries int64
	for {
		req, err := http.NewRequest(http.MethodPost, addr+"/jobs", bytes.NewReader(payload))
		if err != nil {
			return fail, 0, retries
		}
		req.Header.Set("Content-Type", "application/json")
		if arm.tenant != "" {
			req.Header.Set("X-Tenant", arm.tenant)
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			return fail, 0, retries
		}
		if resp.StatusCode != http.StatusServiceUnavailable || retries >= int64(budget) {
			break
		}
		// The load-shed contract: back off exactly as long as the server
		// asked, then resubmit. The budget bounds how long one arrival can
		// chase a saturated server.
		delay := retryAfterDelay(resp.Header.Get("Retry-After"))
		resp.Body.Close()
		retries++
		time.Sleep(delay)
	}
	defer resp.Body.Close()
	// 202 is a fresh admission; 200 is a durable serd deduping the
	// resubmission onto a job it already owns — both mean the job is in.
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fail, resp.StatusCode, retries
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.ID == "" {
		return fail, 0, retries
	}

	o := outcome{class: cls.name, tenant: arm.tenant, qosClass: arm.qosClass}
	state, errMsg, events := followEvents(addr, st.ID)
	o.events = events
	if state == "" {
		// Stream ended without a terminal event (e.g. server restarted);
		// fall back to one status poll.
		state, errMsg = pollState(addr, st.ID)
	}
	o.state = state
	o.errMsg = errMsg
	o.latency = time.Since(t0).Seconds()
	return o, resp.StatusCode, retries
}

// retryAfterDelay parses a Retry-After header (delta-seconds form),
// clamped to [100ms, 30s]; an absent or unparsable header backs off 1s.
func retryAfterDelay(h string) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil {
		d = time.Duration(secs) * time.Second
	}
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// followEvents consumes the job's SSE stream until a terminal state event
// or stream end, returning the terminal state ("" if none seen), its error
// text, and how many events arrived.
func followEvents(addr, id string) (string, string, int64) {
	resp, err := http.Get(addr + "/jobs/" + id + "/events")
	if err != nil {
		return "", "", 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", "", 0
	}
	var events int64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		var e struct {
			Type  string `json:"type"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line[len("data: "):]), &e); err != nil {
			continue
		}
		if e.Type == "state" {
			switch e.State {
			case "done", "failed", "canceled":
				return e.State, e.Error, events
			}
		}
	}
	return "", "", events
}

// pollState fetches the job's current state and error once.
func pollState(addr, id string) (string, string) {
	resp, err := http.Get(addr + "/jobs/" + id)
	if err != nil {
		return "", ""
	}
	defer resp.Body.Close()
	var st struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return "", ""
	}
	return st.State, st.Error
}

// scrapeServerHistogram pulls serd's admission-to-done histogram from the
// JSON /metrics snapshot (nil when unavailable).
func scrapeServerHistogram(addr string) *obs.HistogramSnapshot {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return nil
	}
	h, ok := snap.Histograms["serd/latency/admission_to_done_seconds"]
	if !ok {
		return nil
	}
	return &h
}
