package dist_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"finser"
	"finser/internal/breaker"
	"finser/internal/dist"
	"finser/internal/server"
)

// A single-node run and a coordinator keep one bin ledger per species in
// one checkpoint record ("vdd<V>/fit/<species>"), so either resumes the
// other's checkpoint, under any ShardBins, and both hold restored bins to
// the shard wire's checks.

// binCollector records BinDone events thread-safely.
type binCollector struct {
	mu     sync.Mutex
	events []finser.BinEvent
}

func (c *binCollector) add(ev finser.BinEvent) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// checkpointed returns flow with a fresh checkpoint at path.
func checkpointed(t *testing.T, flow finser.FlowConfig, path string) finser.FlowConfig {
	t.Helper()
	store, err := finser.CreateCheckpoint(path, flow, []float64{flow.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	flow.Checkpoint = store
	return flow
}

// resumed returns flow resuming the checkpoint at path.
func resumed(t *testing.T, flow finser.FlowConfig, path string) finser.FlowConfig {
	t.Helper()
	store, err := finser.ResumeCheckpoint(path, flow, []float64{flow.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	flow.Checkpoint = store
	return flow
}

// onlyAlphaCoordinatorCheckpoint runs flow's job against a worker that
// fails every proton shard, leaving a checkpoint at path that holds the
// alpha bins only.
func onlyAlphaCoordinatorCheckpoint(t *testing.T, flow finser.FlowConfig, path string) {
	t.Helper()
	srv := server.New(server.Config{Workers: 2})
	srv.Start()
	broken := protonKiller(t, srv.Handler())
	co := testCoordinator(t, dist.Config{
		Workers:       []string{broken.URL},
		ShardAttempts: 1,
		Breaker:       breaker.Config{FailureThreshold: 100, Cooldown: 50 * time.Millisecond},
	})
	if _, err := co.Run(context.Background(), checkpointed(t, flow, path), nil); err == nil {
		t.Fatal("first run should have failed on proton shards")
	}
}

// TestRestoreRejectsInvalidBins: a checkpoint whose alpha bin 0 fails the
// shard wire's point checks fails the single-node flow, naming the stage,
// in every guard mode; a coordinator recomputes the alpha bins instead and
// still merges bit-identically.
func TestRestoreRejectsInvalidBins(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ck.json")
	if _, err := finser.RunFlowWithCharCtx(context.Background(), checkpointed(t, flow, good), want.Char); err != nil {
		t.Fatal(err)
	}
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	const stage = "vdd0.7/fit/alpha"
	for name, corrupt := range invalidPoints {
		bad := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".ck.json")
		corruptBin0(t, flow, good, bad, stage, corrupt)
		for _, mode := range []finser.GuardMode{finser.GuardOff, finser.GuardWarn, finser.GuardStrict} {
			cfg := resumed(t, flow, bad)
			cfg.Guard = mode
			_, err := finser.RunFlowWithCharCtx(context.Background(), cfg, want.Char)
			if err == nil || !strings.Contains(err.Error(), stage) {
				t.Errorf("%s, guard %v: resume err = %v, want an error naming %s", name, mode, err, stage)
			}
		}

		var ev eventCollector
		co := testCoordinator(t, dist.Config{Workers: []string{w1.URL, w2.URL}})
		got, err := co.Run(context.Background(), resumed(t, flow, bad), ev.emit)
		if err != nil {
			t.Fatalf("%s: coordinator: %v", name, err)
		}
		requireBitIdentical(t, got, want)
		if n := ev.count(dist.EventDispatched); n != 2 {
			t.Errorf("%s: coordinator dispatched %d shards, want the 2 alpha shards", name, n)
		}
	}
}

// corruptBin0 copies flow's checkpoint at src to dst with stage's bin 0
// passed through corrupt, reading and writing both through the store.
func corruptBin0(t *testing.T, flow finser.FlowConfig, src, dst, stage string, corrupt func(*finser.POFPoint)) {
	t.Helper()
	vdds := []float64{flow.Vdd}
	in, err := finser.ResumeCheckpoint(src, flow, vdds)
	if err != nil {
		t.Fatal(err)
	}
	out, err := finser.CreateCheckpoint(dst, flow, vdds)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range in.Stages() {
		var state map[string]json.RawMessage
		if _, err := in.Load(name, &state); err != nil {
			t.Fatal(err)
		}
		if name == stage {
			var pts []*finser.POFPoint
			if err := json.Unmarshal(state["points"], &pts); err != nil || len(pts) == 0 {
				t.Fatalf("stage %s holds no points: %v", stage, err)
			}
			corrupt(pts[0])
			if state["points"], err = json.Marshal(pts); err != nil {
				t.Fatal(err)
			}
			found = true
		}
		if err := out.Save(name, state); err != nil {
			t.Fatal(err)
		}
	}
	if !found {
		t.Fatalf("checkpoint %s holds no stage %s", src, stage)
	}
}

// TestCoordinatorResumesSingleNodeCheckpoint: a RunFlowCtx checkpoint that
// holds only the alpha bins, resumed by a coordinator, dispatches no alpha
// shard and merges bit-identically.
func TestCoordinatorResumesSingleNodeCheckpoint(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)
	path := filepath.Join(t.TempDir(), "run.ck.json")

	// Interrupt once the last alpha bin is in: proton never starts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := checkpointed(t, flow, path)
	first.BinDone = func(ev finser.BinEvent) {
		if ev.Stage == "fit/alpha" && ev.Bin == ev.Bins {
			cancel()
		}
	}
	if _, err := finser.RunFlowCtx(ctx, first); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	co := testCoordinator(t, dist.Config{Workers: []string{w1.URL, w2.URL}})
	var ev eventCollector
	got, err := co.Run(context.Background(), resumed(t, flow, path), ev.emit)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want)
	for _, e := range ev.events {
		if e.Kind == dist.EventDispatched && e.Shard.Species == dist.SpeciesAlpha {
			t.Errorf("alpha shard %v dispatched despite the single-node checkpoint", e.Shard)
		}
	}
	if n := ev.count(dist.EventResumed); n != 2 {
		t.Errorf("resumed %d shards, want the 2 alpha shards", n)
	}
}

// TestSingleNodeResumesCoordinatorCheckpoint: a coordinator checkpoint that
// holds only alpha (its proton shards failed), resumed by RunFlowCtx,
// strikes only the proton bins, reports the alpha bins Resumed, and lands
// on the single-node bits.
func TestSingleNodeResumesCoordinatorCheckpoint(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)
	path := filepath.Join(t.TempDir(), "dist.ck.json")
	onlyAlphaCoordinatorCheckpoint(t, flow, path)

	cfg := resumed(t, flow, path)
	cfg.Obs = finser.NewMetrics()
	var bins binCollector
	cfg.BinDone = bins.add
	got, err := finser.RunFlowCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Alpha, want.Alpha) || !reflect.DeepEqual(got.Proton, want.Proton) {
		t.Error("resumed single-node FIT differs from the uninterrupted run")
	}
	if n, wantN := cfg.Obs.Counter("core.particles_generated").Value(), int64(flow.ProtonBins*flow.ItersPerBin); n != wantN {
		t.Errorf("resumed run struck %d particles, want %d (the proton bins only)", n, wantN)
	}
	for _, ev := range bins.events {
		if ev.Resumed != (ev.Stage == "fit/alpha") {
			t.Errorf("%s bin %d: Resumed = %v", ev.Stage, ev.Bin, ev.Resumed)
		}
	}
	if len(bins.events) != flow.AlphaBins+flow.ProtonBins {
		t.Errorf("%d bin events, want %d", len(bins.events), flow.AlphaBins+flow.ProtonBins)
	}
}

// TestResumeUnderOtherShardBins: a coordinator checkpoint written under
// ShardBins 2 resumes under 1 and under 4 without dispatching a shard.
func TestResumeUnderOtherShardBins(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)
	path := filepath.Join(t.TempDir(), "dist.ck.json")
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	workers := []string{w1.URL, w2.URL}
	if _, err := testCoordinator(t, dist.Config{Workers: workers, ShardBins: 2}).Run(context.Background(), checkpointed(t, flow, path), nil); err != nil {
		t.Fatal(err)
	}
	for _, shardBins := range []int{1, 4} {
		var ev eventCollector
		got, err := testCoordinator(t, dist.Config{Workers: workers, ShardBins: shardBins}).Run(context.Background(), resumed(t, flow, path), ev.emit)
		if err != nil {
			t.Fatalf("ShardBins %d: %v", shardBins, err)
		}
		requireBitIdentical(t, got, want)
		if n := ev.count(dist.EventDispatched); n != 0 {
			t.Errorf("ShardBins %d: dispatched %d shards over a complete checkpoint", shardBins, n)
		}
	}
}

// TestResumedRunFiresEveryBinOnce: a resumed distributed run fires exactly
// one BinDone per bin, restored bins included and marked Resumed, and each
// species' last FITSoFar is its merged TotalFIT to the bit.
func TestResumedRunFiresEveryBinOnce(t *testing.T) {
	for _, relErr := range []float64{0, 0.1} {
		flow := tinyFlow()
		flow.FITRelErr = relErr
		path := filepath.Join(t.TempDir(), "dist.ck.json")
		onlyAlphaCoordinatorCheckpoint(t, flow, path)

		cfg := resumed(t, flow, path)
		var bins binCollector
		cfg.BinDone = bins.add
		// Two workers, so proton shards may land out of bin order.
		w1, w2 := newWorker(t, nil), newWorker(t, nil)
		got, err := testCoordinator(t, dist.Config{Workers: []string{w1.URL, w2.URL}}).Run(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, got, singleNode(t, flow))
		for _, sp := range []struct {
			stage string
			bins  int
			fit   finser.FITResult
		}{{"fit/alpha", flow.AlphaBins, got.Alpha}, {"fit/proton", flow.ProtonBins, got.Proton}} {
			seen := map[int]int{}
			var last finser.BinEvent
			for _, ev := range bins.events {
				if ev.Stage != sp.stage {
					continue
				}
				seen[ev.Bin]++
				last = ev
				if ev.Resumed != (sp.stage == "fit/alpha") || ev.Adaptive != (relErr > 0) || ev.Bins != sp.bins {
					t.Errorf("relErr %g: %s bin %d: %+v", relErr, sp.stage, ev.Bin, ev)
				}
			}
			for b := 1; b <= sp.bins; b++ {
				if seen[b] != 1 {
					t.Errorf("relErr %g: %s bin %d fired %d times, want 1", relErr, sp.stage, b, seen[b])
				}
			}
			if last.FITSoFar != sp.fit.TotalFIT {
				t.Errorf("relErr %g: %s last FITSoFar %v, merged TotalFIT %v", relErr, sp.stage, last.FITSoFar, sp.fit.TotalFIT)
			}
		}
	}
}

// TestLegacyCheckpointRecords: records in the layouts an earlier release
// wrote are never misread. A single-node record (a bin-ordered prefix) is
// this ledger's record and resumes bit-identically; a coordinator's
// per-shard stage ("dist/<species>/<start>-<end>") is no ledger stage, so
// its bins are computed again.
func TestLegacyCheckpointRecords(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)
	alpha, err := finser.SpeciesLedger(flow, finser.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	seeds := alpha.Plan().Seeds
	dir := t.TempDir()

	type legacyFitState struct {
		ItersPerBin int               `json:"iters_per_bin"`
		Seeds       []uint64          `json:"seeds"`
		Points      []finser.POFPoint `json:"points"`
		RelErr      float64           `json:"rel_err,omitempty"`
		Conv        []finser.BinConv  `json:"conv,omitempty"`
	}
	local := checkpointed(t, flow, filepath.Join(dir, "local.ck.json"))
	if err := local.Checkpoint.Save("vdd0.7/fit/alpha", legacyFitState{ItersPerBin: flow.ItersPerBin, Seeds: seeds, Points: want.Alpha.Points[:2]}); err != nil {
		t.Fatal(err)
	}
	local.Obs = finser.NewMetrics()
	got, err := finser.RunFlowWithCharCtx(context.Background(), local, want.Char)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Alpha, want.Alpha) || !reflect.DeepEqual(got.Proton, want.Proton) {
		t.Error("single-node record: resumed FIT differs from the uninterrupted run")
	}
	if n, wantN := local.Obs.Counter("core.particles_generated").Value(), int64((flow.AlphaBins-2+flow.ProtonBins)*flow.ItersPerBin); n != wantN {
		t.Errorf("single-node record: struck %d particles, want %d", n, wantN)
	}

	type legacyShard struct {
		Fingerprint string            `json:"fingerprint"`
		Points      []finser.POFPoint `json:"points"`
	}
	id := dist.ShardID{Species: dist.SpeciesAlpha, Start: 0, End: 2}
	fp, err := dist.ShardFingerprint(flow, id, seeds[0:2])
	if err != nil {
		t.Fatal(err)
	}
	coord := checkpointed(t, flow, filepath.Join(dir, "dist.ck.json"))
	if err := coord.Checkpoint.Save("dist/alpha/0-2", legacyShard{Fingerprint: fp, Points: want.Alpha.Points[:2]}); err != nil {
		t.Fatal(err)
	}
	w := newWorker(t, nil)
	var ev eventCollector
	res, err := testCoordinator(t, dist.Config{Workers: []string{w.URL}}).Run(context.Background(), coord, ev.emit)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, res, want)
	if n := ev.count(dist.EventDispatched); n != 4 {
		t.Errorf("coordinator record: dispatched %d shards, want all 4", n)
	}
}
