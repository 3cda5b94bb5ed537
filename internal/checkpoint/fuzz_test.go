package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointLoad drives Resume with arbitrary file bytes: every input
// must either produce a usable store (round-tripping its stages) or fail
// with a typed error — *CorruptError or ErrConfigMismatch — never a panic
// and never an untyped decode failure.
func FuzzCheckpointLoad(f *testing.F) {
	f.Add([]byte(`{"version":1,"config_hash":"h","stages":{}}`))
	f.Add([]byte(`{"version":1,"config_hash":"h","stages":{"pof":{"points":[0.1,0.2]}}}`))
	f.Add([]byte(`{"version":1,"config_hash":"other","stages":{}}`))
	f.Add([]byte(`{"version":2,"config_hash":"h","stages":{}}`))
	f.Add([]byte(`{"version":1,"config_hash":"h","stages":{"a":`)) // truncated
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	const hdr = `{"version":2,"config_hash":"h"}` + "\n"
	f.Add([]byte(hdr))
	f.Add([]byte(hdr + `{"stage":"a","state":{"x":1}}` + "\n" + `{"stage":"a","state":{"x":2}}` + "\n"))
	f.Add([]byte(hdr + `{"stage":"a","state":1}` + "\n" + `{"stage":"b","state":[1,`))
	f.Add([]byte(hdr + `{"stage":"a","state":1}` + "\n" + `{"stage":` + "\n" + `{"stage":"b","state":2}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Resume(path, "h")
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) && !errors.Is(err, ErrConfigMismatch) {
				t.Fatalf("untyped rejection %T: %v", err, err)
			}
			return
		}
		// An accepted checkpoint must round-trip every stage it claims.
		for _, stage := range s.Stages() {
			var v any
			if _, err := s.Load(stage, &v); err != nil {
				t.Fatalf("accepted checkpoint fails stage %q load: %v", stage, err)
			}
		}
		// And stay writable: Save must not fail on a resumed store, and the
		// file it leaves must resume with every stage and the new one.
		if err := s.Save("fuzz-probe", 42); err != nil {
			t.Fatalf("save on resumed store: %v", err)
		}
		r, err := Resume(path, "h")
		if err != nil {
			t.Fatalf("resume after save: %v", err)
		}
		if len(r.Stages()) != len(s.Stages()) {
			t.Fatalf("resume after save holds %v, want %v", r.Stages(), s.Stages())
		}
		var probe int
		if ok, err := r.Load("fuzz-probe", &probe); !ok || err != nil || probe != 42 {
			t.Fatalf("probe stage after resume: ok=%v err=%v value=%d", ok, err, probe)
		}
	})
}
