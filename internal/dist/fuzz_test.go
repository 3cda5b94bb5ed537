package dist_test

import (
	"encoding/json"
	"math"
	"testing"

	"finser"
	"finser/internal/dist"
	"finser/internal/sram"
)

// FuzzShardResultDecode hammers the coordinator's trust boundary: whatever
// bytes a worker (or an impostor on the network) returns, DecodeShardResult
// must either produce a fully validated result or a typed *dist.WireError —
// never panic, and never let a non-finite or out-of-range point through to
// the FIT merge.
func FuzzShardResultDecode(f *testing.F) {
	valid, req := fuzzSeedResult(f)
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"fingerprint":"x","shard":{"species":"alpha","start":0,"end":1},"points":[{}]}`))
	f.Add([]byte(`{"fingerprint":"x","shard":{"species":"proton","start":0,"end":1},"points":[{"EnergyMeV":1e309}]}`))
	f.Add(valid[:len(valid)/3])
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, want := range []*dist.ShardRequest{nil, req} {
			res, err := dist.DecodeShardResult(data, want)
			if err != nil {
				if !dist.IsWire(err) {
					t.Fatalf("non-wire error %T from decode: %v", err, err)
				}
				continue
			}
			// Accepted results must be merge-safe: finite, in-range physics
			// aligned with the shard's bin count.
			if len(res.Points) != res.Shard.End-res.Shard.Start {
				t.Fatalf("accepted result with %d points for %v", len(res.Points), res.Shard)
			}
			for i, pt := range res.Points {
				for _, v := range []float64{pt.EnergyMeV, pt.Tot, pt.SEU, pt.MBU, pt.TotStdErr, pt.HitFrac} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("accepted non-finite value %v in point %d", v, i)
					}
				}
				if pt.Tot < 0 || pt.Tot > 1 || pt.Strikes <= 0 {
					t.Fatalf("accepted out-of-range point %+v", pt)
				}
			}
		}
	})
}

// FuzzShardRequestDecode is the worker-side twin: arbitrary coordinator
// bytes must never panic the /shards decoder, and an accepted request's
// shipped characterization must be usable: a probability at its median
// critical charge on every axis.
func FuzzShardRequestDecode(f *testing.F) {
	_, req := fuzzSeedResult(f)
	req.Char = shippedChar(f, tinyFlow())
	if b, err := json.Marshal(req); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"job":{"vdd":0.7},"shard":{"species":"alpha","start":0,"end":1},"seeds":[1],"fingerprint":"x"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := dist.DecodeShardRequest(data)
		if err != nil {
			return
		}
		if got == nil || got.Char == nil {
			t.Fatalf("accepted request without a characterization: %+v", got)
		}
		for a := sram.AxisI1; a < sram.NumAxes; a++ {
			if p := got.Char.POFSingle(a, got.Char.QcritQuantile(a, 0.5)); !(p >= 0 && p <= 1) {
				t.Fatalf("accepted characterization answers POF %v on axis %v", p, a)
			}
		}
	})
}

// fuzzSeedResult builds one valid (request, result) pair for the corpus.
func fuzzSeedResult(f *testing.F) ([]byte, *dist.ShardRequest) {
	f.Helper()
	flow := tinyFlow()
	alpha, err := finser.SpeciesLedger(flow, finser.Alpha)
	if err != nil {
		f.Fatal(err)
	}
	sched := alpha.Plan().Seeds
	id := dist.ShardID{Species: dist.SpeciesAlpha, Start: 0, End: 2}
	fp, err := dist.ShardFingerprint(flow, id, sched[0:2])
	if err != nil {
		f.Fatal(err)
	}
	req := &dist.ShardRequest{Job: flow, Shard: id, Seeds: sched[0:2], Fingerprint: fp}
	res := dist.ShardResult{
		Fingerprint: fp,
		Shard:       id,
		Points: []finser.POFPoint{
			{EnergyMeV: 1.0, Tot: 0.5, SEU: 0.4, MBU: 0.1, TotStdErr: 0.01, Strikes: 200, HitFrac: 0.9},
			{EnergyMeV: 2.0, Tot: 0.25, SEU: 0.2, MBU: 0.05, TotStdErr: 0.02, Strikes: 200, HitFrac: 0.8},
		},
	}
	b, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	return b, req
}
