package dist_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"finser"
	"finser/internal/dist"
)

// tinyFlow is the shared fast-but-real job configuration: full physics,
// minimal Monte-Carlo budget, one worker.
func tinyFlow() finser.FlowConfig {
	return finser.FlowConfig{
		Vdd:         0.7,
		Samples:     6,
		ItersPerBin: 200,
		AlphaBins:   3,
		ProtonBins:  4,
		Workers:     1,
		Seed:        42,
	}
}

// shippedChar characterizes flow the way a coordinator does before
// shipping it: once, without the per-sample Vth shifts.
func shippedChar(tb testing.TB, flow finser.FlowConfig) *finser.Characterization {
	tb.Helper()
	ch, err := finser.CharacterizeFlowCtx(context.Background(), flow)
	if err != nil {
		tb.Fatal(err)
	}
	ch.Shifts = nil
	return ch
}

// tinyShardRequest builds a valid wire request for the first alpha shard
// of tinyFlow, carrying its characterization.
func tinyShardRequest(t *testing.T) *dist.ShardRequest {
	t.Helper()
	return shardRequest(t, tinyFlow(), true)
}

// shardRequest builds a valid wire request for the first alpha shard of
// flow, carrying its characterization when withChar is set.
func shardRequest(t *testing.T, flow finser.FlowConfig, withChar bool) *dist.ShardRequest {
	t.Helper()
	alpha, err := finser.SpeciesLedger(flow, finser.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	sched := alpha.Plan().Seeds
	id := dist.ShardID{Species: dist.SpeciesAlpha, Start: 0, End: 2}
	fp, err := dist.ShardFingerprint(flow, id, sched[0:2])
	if err != nil {
		t.Fatal(err)
	}
	req := &dist.ShardRequest{Job: flow, Shard: id, Seeds: sched[0:2], Fingerprint: fp}
	if withChar {
		req.Char = shippedChar(t, flow)
	}
	return req
}

// TestShardWireKeepsFlowFingerprint: a job with every result-determining
// field set away from its default crosses the shard wire whole — the
// worker's decoded config has the coordinator's flow fingerprint — while
// the card and the worker count stay off the wire.
func TestShardWireKeepsFlowFingerprint(t *testing.T) {
	flow := finser.FlowConfig{
		Vdd:              0.9,
		Rows:             5,
		Cols:             6,
		ProcessVariation: true,
		Samples:          7,
		ItersPerBin:      300,
		FITRelErr:        0.1,
		AlphaRate:        0.002,
		ProtonScale:      3,
		AlphaBins:        4,
		ProtonBins:       5,
		Pattern:          finser.PatternCheckerboard,
		Seed:             99,
		Workers:          3,
	}
	data, err := json.Marshal(shardRequest(t, flow, true))
	if err != nil {
		t.Fatal(err)
	}
	var wire struct{ Job map[string]any }
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Job) != 13 {
		t.Errorf("the wire job has %d fields, want the 13 result-determining ones: %v", len(wire.Job), wire.Job)
	}
	got, err := dist.DecodeShardRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	vdds := []float64{flow.Vdd}
	want, err := finser.FlowFingerprint(flow, vdds)
	if err != nil {
		t.Fatal(err)
	}
	if fp, err := finser.FlowFingerprint(got.Job, vdds); err != nil || fp != want {
		t.Errorf("decoded job fingerprint %s (err %v), want %s:\n sent    %+v\n decoded %+v", fp, err, want, flow, got.Job)
	}
}

func TestDecodeShardRequestValid(t *testing.T) {
	req := tinyShardRequest(t)
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dist.DecodeShardRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != req.Shard || got.Fingerprint != req.Fingerprint ||
		!reflect.DeepEqual(got.Char.Axis, req.Char.Axis) {
		t.Fatalf("decode mutated the request: %+v", got)
	}
}

func TestDecodeShardRequestRejects(t *testing.T) {
	valid := tinyShardRequest(t)
	mutate := func(f func(*dist.ShardRequest)) []byte {
		r := *valid
		r.Seeds = append([]uint64(nil), valid.Seeds...)
		f(&r)
		b, _ := json.Marshal(&r)
		return b
	}
	parentWire := strings.Replace(string(mutate(func(*dist.ShardRequest) {})), `"job":{`, `"job":{"workers":2,`, 1)
	namedPattern := strings.Replace(string(mutate(func(*dist.ShardRequest) {})), `"job":{`, `"job":{"pattern":"checkerboard",`, 1)
	// withChar swaps in a characterization changed by f.
	withChar := func(f func(*finser.Characterization)) []byte {
		return mutate(func(r *dist.ShardRequest) {
			ch := *valid.Char
			f(&ch)
			r.Char = &ch
		})
	}
	q := valid.Char.Axis[0][0]
	cases := map[string][]byte{
		"garbage":        []byte("{nope"),
		"unknown field":  []byte(`{"job":{},"shard":{},"bogus":1}`),
		"bad species":    mutate(func(r *dist.ShardRequest) { r.Shard.Species = "muon" }),
		"empty range":    mutate(func(r *dist.ShardRequest) { r.Shard.End = r.Shard.Start }),
		"range past end": mutate(func(r *dist.ShardRequest) { r.Shard.End = 99; r.Seeds = make([]uint64, 99) }),
		"seed count":     mutate(func(r *dist.ShardRequest) { r.Seeds = r.Seeds[:1] }),
		"seed skew":      mutate(func(r *dist.ShardRequest) { r.Seeds[0]++ }),
		"no fingerprint": mutate(func(r *dist.ShardRequest) { r.Fingerprint = "" }),
		// A coordinator on another physics revision (or any skew the
		// fingerprint covers) hashes the same shard differently.
		"wrong fingerprint": mutate(func(r *dist.ShardRequest) { r.Fingerprint = strings.Repeat("0", len(r.Fingerprint)) }),
		"bad job":           mutate(func(r *dist.ShardRequest) { r.Job.Vdd = -1 }),
		// A coordinator that still puts the worker count on the wire draws
		// another random stream.
		"workers on the wire": []byte(parentWire),
		// A coordinator that spells the pattern as a name predates the
		// FlowConfig wire.
		"named pattern": []byte(namedPattern),
	}
	for name, data := range cases {
		if _, err := dist.DecodeShardRequest(data); err == nil {
			t.Errorf("%s: decode accepted invalid request", name)
		} else if !dist.IsWire(err) && name != "bad job" {
			t.Errorf("%s: want *WireError, got %T %v", name, err, err)
		}
	}

	// Every fault in the shipped characterization is reported as field
	// "char".
	charCases := map[string][]byte{
		// A coordinator that predates shipping sends none.
		"no char":         mutate(func(r *dist.ShardRequest) { r.Char = nil }),
		"zero qcrit":      withChar(func(c *finser.Characterization) { c.Axis = [3][]float64{{0}, {q}, {q}} }),
		"axis length":     withChar(func(c *finser.Characterization) { c.Axis = [3][]float64{{q, q}, {q}, {q}} }),
		"samples vs job":  withChar(func(c *finser.Characterization) { c.Samples = 2; c.Axis = [3][]float64{{q, q}, {q, q}, {q, q}} }),
		"vdd vs job":      withChar(func(c *finser.Characterization) { c.Vdd += 0.1 }),
		"variation flag":  withChar(func(c *finser.Characterization) { c.PV = !c.PV }),
		"char field typo": []byte(strings.Replace(string(mutate(func(*dist.ShardRequest) {})), `"char":{`, `"char":{"bogus":1,`, 1)),
	}
	for name, data := range charCases {
		_, err := dist.DecodeShardRequest(data)
		var we *dist.WireError
		if !errors.As(err, &we) || we.Field != "char" {
			t.Errorf("%s: want *WireError on field char, got %T %v", name, err, err)
		}
	}
}

// invalidPoints are the point corruptions every trust boundary rejects:
// the shard wire (TestDecodeShardResultRejects) and a checkpoint restore
// (TestRestoreRejectsInvalidBins).
var invalidPoints = map[string]func(*finser.POFPoint){
	"negative stderr":   func(p *finser.POFPoint) { p.TotStdErr = -1 },
	"pof above one":     func(p *finser.POFPoint) { p.SEU = 1.5 },
	"negative energy":   func(p *finser.POFPoint) { p.EnergyMeV = -3 },
	"zero strikes":      func(p *finser.POFPoint) { p.Strikes = 0 },
	"tot 7, strikes -3": func(p *finser.POFPoint) { p.Tot, p.Strikes = 7, -3 },
}

// validShardResult fabricates a structurally valid result for the tiny
// alpha shard (points need not come from real Monte Carlo to test the wire).
func validShardResult(t *testing.T) ([]byte, *dist.ShardRequest) {
	t.Helper()
	req := tinyShardRequest(t)
	res := dist.ShardResult{
		Fingerprint: req.Fingerprint,
		Shard:       req.Shard,
		Points: []finser.POFPoint{
			{EnergyMeV: 1.0, Tot: 0.5, SEU: 0.4, MBU: 0.1, TotStdErr: 0.01, Strikes: 200, HitFrac: 0.9},
			{EnergyMeV: 2.0, Tot: 0.25, SEU: 0.2, MBU: 0.05, TotStdErr: 0.02, Strikes: 200, HitFrac: 0.8},
		},
		Worker: "w1",
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b, req
}

func TestDecodeShardResultValid(t *testing.T) {
	data, req := validShardResult(t)
	res, err := dist.DecodeShardResult(data, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Worker != "w1" {
		t.Fatalf("decode mutated the result: %+v", res)
	}
}

func TestDecodeShardResultRejects(t *testing.T) {
	data, req := validShardResult(t)
	mutate := func(f func(*dist.ShardResult)) []byte {
		var r dist.ShardResult
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		f(&r)
		b, _ := json.Marshal(&r)
		return b
	}
	cases := map[string][]byte{
		"garbage":           []byte(`{"fingerprint":`),
		"truncated":         data[:len(data)/2],
		"wrong fingerprint": mutate(func(r *dist.ShardResult) { r.Fingerprint = "deadbeef" }),
		"wrong shard":       mutate(func(r *dist.ShardResult) { r.Shard.Start++; r.Shard.End++ }),
		"short points":      mutate(func(r *dist.ShardResult) { r.Points = r.Points[:1] }),
		// json.Marshal refuses NaN/Inf, so splice raw tokens in: a bare NaN
		// is a JSON syntax error (rejected at decode), and a huge literal
		// overflows float64 to +Inf inside the decoder.
		"nan tot": []byte(strings.Replace(string(data), `"Tot":0.5`, `"Tot":NaN`, 1)),
	}
	for name, corrupt := range invalidPoints {
		cases[name] = mutate(func(r *dist.ShardResult) { corrupt(&r.Points[0]) })
	}
	for name, body := range cases {
		_, err := dist.DecodeShardResult(body, req)
		if err == nil {
			t.Errorf("%s: decode accepted invalid result", name)
			continue
		}
		var we *dist.WireError
		if !errors.As(err, &we) {
			t.Errorf("%s: want *WireError, got %T %v", name, err, err)
		}
	}
}

// adaptiveShardRequest is tinyShardRequest with the adaptive sampler on.
func adaptiveShardRequest(t *testing.T) *dist.ShardRequest {
	t.Helper()
	flow := tinyFlow()
	flow.FITRelErr = 0.05
	return shardRequest(t, flow, false)
}

// TestDecodeShardResultConvSkew pins the version-skew contract for the
// adaptive convergence fields: an adaptive job must never silently accept a
// flat-budget result (an old worker that dropped the unknown fit_rel_err
// would produce exactly that), and a flat job must reject stray convergence
// records — both as typed *WireError, never a quiet merge.
func TestDecodeShardResultConvSkew(t *testing.T) {
	req := adaptiveShardRequest(t)
	goodConv := []finser.BinConv{
		{RelErr: 0.04, Tol: 0.05, Converged: true, Batches: 4, StrikesSaved: 120},
		{RelErr: 0.03, Tol: 0.05, Converged: true, Batches: 5, StrikesSaved: 0},
	}
	mk := func(f func(*dist.ShardResult)) []byte {
		res := dist.ShardResult{
			Fingerprint: req.Fingerprint,
			Shard:       req.Shard,
			Points: []finser.POFPoint{
				{EnergyMeV: 1.0, Tot: 0.5, SEU: 0.4, MBU: 0.1, TotStdErr: 0.01, Strikes: 80, HitFrac: 0.9},
				{EnergyMeV: 2.0, Tot: 0.25, SEU: 0.2, MBU: 0.05, TotStdErr: 0.02, Strikes: 200, HitFrac: 0.8},
			},
			Conv:   append([]finser.BinConv(nil), goodConv...),
			Worker: "w1",
		}
		if f != nil {
			f(&res)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	if res, err := dist.DecodeShardResult(mk(nil), req); err != nil {
		t.Fatalf("valid adaptive result rejected: %v", err)
	} else if len(res.Conv) != 2 {
		t.Fatalf("decode dropped conv records: %+v", res)
	}

	rejects := map[string][]byte{
		"missing conv (flat-budget worker)": mk(func(r *dist.ShardResult) { r.Conv = nil }),
		"short conv":                        mk(func(r *dist.ShardResult) { r.Conv = r.Conv[:1] }),
		"invalid conv tol":                  mk(func(r *dist.ShardResult) { r.Conv[0].Tol = 0 }),
		"conv batches over cap":             mk(func(r *dist.ShardResult) { r.Conv[1].Batches = 1000 }),
		"conv inconsistent with strikes":    mk(func(r *dist.ShardResult) { r.Conv[0].Batches = 3 }), // 80 % 3 != 0
	}
	for name, body := range rejects {
		_, err := dist.DecodeShardResult(body, req)
		if err == nil {
			t.Errorf("%s: decode accepted skewed result", name)
			continue
		}
		var we *dist.WireError
		if !errors.As(err, &we) {
			t.Errorf("%s: want *WireError, got %T %v", name, err, err)
		}
	}

	// The reverse skew: a flat job must not accept convergence records.
	flatData, flatReq := validShardResult(t)
	var res dist.ShardResult
	if err := json.Unmarshal(flatData, &res); err != nil {
		t.Fatal(err)
	}
	res.Conv = goodConv
	body, _ := json.Marshal(res)
	if _, err := dist.DecodeShardResult(body, flatReq); err == nil {
		t.Error("flat job accepted convergence records")
	} else if !dist.IsWire(err) {
		t.Errorf("flat-job conv rejection: want *WireError, got %T %v", err, err)
	}

	// An old peer (no conv support compiled in) rejects the new field
	// outright: the strict decoder turns unknown fields into *WireError, so
	// skew fails loudly on their side too.
	withUnknown := []byte(strings.Replace(string(flatData), `"fingerprint"`, `"conv_v2":[],"fingerprint"`, 1))
	if _, err := dist.DecodeShardResult(withUnknown, flatReq); err == nil || !dist.IsWire(err) {
		t.Errorf("unknown-field result: want *WireError, got %v", err)
	}
}
