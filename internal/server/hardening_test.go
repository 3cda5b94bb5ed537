package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"finser"
	"finser/internal/dist"
)

// TestOversizedSubmitBodySheds413 drives the submit trust boundary: a body
// past the 1 MiB cap must be refused with 413 and a JSON error body, not
// streamed into the decoder.
func TestOversizedSubmitBodySheds413(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A syntactically plausible but oversized body: a giant pattern field.
	body := `{"vdd":0.8,"pattern":"` + strings.Repeat("x", maxSubmitBytes+1024) + `"}`
	resp, raw := postJob(t, ts, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type = %q, want JSON error body", ct)
	}
	if !strings.Contains(string(raw), "exceeds") {
		t.Errorf("error body %q does not explain the limit", raw)
	}

	// The server must still be healthy for a normal-size follow-up.
	resp, raw = postJob(t, ts, `{"vdd":0.0}`) // invalid, but parsed: proves decode works
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("follow-up status = %d, want 400; body %s", resp.StatusCode, raw)
	}
}

// TestShardRequestBoundary drives the /shards trust boundary: a shard
// request whose shipped characterization has 100,000 samples (100× the
// paper's) is served, one from a coordinator that ships no
// characterization is refused with 400, and a body past the size bound is
// refused with 413.
func TestShardRequestBoundary(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const samples = 100_000
	spec := dist.JobSpec{Vdd: 0.7, ProcessVariation: true, Samples: samples, ItersPerBin: 20, AlphaBins: 2, ProtonBins: 2, Seed: 3}
	flow, err := spec.FlowConfig()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := finser.SpeciesSeedSchedule(flow, finser.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	id := dist.ShardID{Species: dist.SpeciesAlpha, Start: 0, End: 1}
	fp, err := dist.ShardFingerprint(spec, id, sched[:1])
	if err != nil {
		t.Fatal(err)
	}
	char := &finser.Characterization{Vdd: spec.Vdd, Samples: samples, PV: true}
	for a := range char.Axis {
		char.Axis[a] = make([]float64, samples)
		for i := range char.Axis[a] {
			char.Axis[a][i] = 1e-16 * (1 + float64(i)/(3*samples))
		}
	}
	req := dist.ShardRequest{Job: spec, Shard: id, Seeds: sched[:1], Fingerprint: fp}
	noChar, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	req.Char = char
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxShardRequestBytes || len(body) < maxShardRequestBytes/2 {
		t.Fatalf("%d-sample request is %d bytes; the test means to load the %d-byte bound", samples, len(body), maxShardRequestBytes)
	}
	post := func(body []byte) (int, string) {
		resp, err := http.Post(ts.URL+"/shards", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /shards: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	if code, raw := post(body); code != http.StatusOK {
		t.Fatalf("%d-sample shard: status %d, want 200: %.300s", samples, code, raw)
	}
	if code, raw := post(noChar); code != http.StatusBadRequest || !strings.Contains(raw, "char") {
		t.Fatalf("shard without a characterization: status %d, want 400 naming char: %.300s", code, raw)
	}
	if code, raw := post(bytes.Repeat([]byte("x"), maxShardRequestBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized shard body: status %d, want 413: %.300s", code, raw)
	}
}

// TestGuardModeThreadedIntoJobs checks the serving layer forwards its guard
// configuration into each job's flow config.
func TestGuardModeThreadedIntoJobs(t *testing.T) {
	got := make(chan finser.GuardMode, 1)
	s := New(Config{
		Workers: 1,
		Guard:   finser.GuardStrict,
		Runner: func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
			got <- cfg.Guard
			return &JobResult{Vdd: cfg.Vdd}, nil
		},
	})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, raw := postJob(t, ts, `{"vdd":0.8}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, raw)
	}
	if mode := <-got; mode != finser.GuardStrict {
		t.Fatalf("job ran with guard mode %v, want strict", mode)
	}
}
