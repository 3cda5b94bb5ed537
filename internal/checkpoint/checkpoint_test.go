package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

type binState struct {
	Seeds  []uint64  `json:"seeds"`
	Values []float64 `json:"values"`
}

func TestCreateSaveResumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	hash, err := Fingerprint(map[string]int{"rows": 9})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(path, hash)
	if err != nil {
		t.Fatal(err)
	}
	want := binState{Seeds: []uint64{1, 2, 3}, Values: []float64{0.5, 0.25}}
	if err := s.Save("fit/alpha", want); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("fit/proton", binState{Seeds: []uint64{9}}); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(path, hash)
	if err != nil {
		t.Fatal(err)
	}
	var got binState
	ok, err := r.Load("fit/alpha", &got)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if len(got.Seeds) != 3 || got.Seeds[2] != 3 || got.Values[1] != 0.25 {
		t.Fatalf("round trip mangled state: %+v", got)
	}
	if ok, _ := r.Load("fit/missing", &got); ok {
		t.Fatal("missing stage reported present")
	}
	if len(r.Stages()) != 2 {
		t.Fatalf("stages = %v", r.Stages())
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if _, err := Create(path, "aaaa"); err != nil {
		t.Fatal(err)
	}
	_, err := Resume(path, "bbbb")
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("got %v, want ErrConfigMismatch", err)
	}
}

func TestResumeRejectsMissingAndMalformed(t *testing.T) {
	dir := t.TempDir()
	if _, err := Resume(filepath.Join(dir, "absent.json"), "h"); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(bad, "h"); err == nil {
		t.Fatal("malformed file accepted")
	}
}

func TestCreateOverwritesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s, err := Create(path, "h1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("stage", binState{Seeds: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	fresh, err := Create(path, "h1")
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Stages()) != 0 {
		t.Fatal("Create did not start fresh")
	}
	r, err := Resume(path, "h1")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stages()) != 0 {
		t.Fatal("overwrite not flushed to disk")
	}
}

func TestNilStoreIsNoOp(t *testing.T) {
	var s *Store
	if err := s.Save("x", 1); err != nil {
		t.Fatal(err)
	}
	var v int
	ok, err := s.Load("x", &v)
	if ok || err != nil {
		t.Fatalf("nil store load: ok=%v err=%v", ok, err)
	}
	if s.Path() != "" || s.Stages() != nil {
		t.Fatal("nil store leaked state")
	}
}

func TestFingerprintStable(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	h1, err := Fingerprint(cfg{1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := Fingerprint(cfg{1, "x"})
	h3, _ := Fingerprint(cfg{2, "x"})
	if h1 != h2 {
		t.Fatal("fingerprint not deterministic")
	}
	if h1 == h3 {
		t.Fatal("fingerprint ignores config changes")
	}
}

// TestSaveAppendsInPlace: a save appends one line to the file it has, so
// twenty saves keep its inode and leave no temp file in the directory.
func TestSaveAppendsInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	s, err := Create(path, "h")
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Save(fmt.Sprintf("vdd0.8/fit/bin%d", i%3), binState{Seeds: []uint64{uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("Save replaced the checkpoint file instead of appending to it")
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, TempPattern)); len(temps) != 0 {
		t.Errorf("temp files left behind: %v", temps)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n != 21 {
		t.Errorf("file has %d lines, want the header and 20 records", n)
	}
	r, err := Resume(path, "h")
	if err != nil {
		t.Fatal(err)
	}
	var got binState
	if ok, err := r.Load("vdd0.8/fit/bin1", &got); !ok || err != nil || got.Seeds[0] != 19 {
		t.Fatalf("last record for the stage did not win: ok=%v err=%v state=%+v", ok, err, got)
	}
}

// TestTornTailEveryOffset cuts a log of a header and five records (two of
// them for one stage) at every byte offset. Resume keeps exactly the
// records whose newline precedes the cut, fails with a *CorruptError only
// when the cut falls inside the header, and a Save after it round-trips.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ck.json")
	s, err := Create(full, "h")
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		stage string
		state binState
	}
	recs := []rec{
		{"vdd0.7/fit/alpha", binState{Seeds: []uint64{1}, Values: []float64{0.5}}},
		{"vdd0.7/fit/proton", binState{Seeds: []uint64{2}}},
		{"vdd0.7/fit/alpha", binState{Seeds: []uint64{1, 3}, Values: []float64{0.5, 0.125}}},
		{"vdd1.1/fit/alpha", binState{Seeds: []uint64{4}, Values: []float64{1e-300}}},
		{"vdd1.1/fit/neutron", binState{Values: []float64{7}}},
	}
	for _, r := range recs {
		if err := s.Save(r.stage, r.state); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // the offset just past each line's newline
	for i, c := range b {
		if c == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != 1+len(recs) || ends[len(ends)-1] != len(b) {
		t.Fatalf("log has line ends %v over %d bytes, want a header and %d records", ends, len(b), len(recs))
	}
	for cut := 0; cut <= len(b); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.ck.json", cut))
		if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Resume(path, "h")
		if cut < ends[0] {
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Path != path {
				t.Fatalf("cut %d inside the header: err = %v, want a *CorruptError naming the file", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := map[string]binState{}
		for i, rc := range recs {
			if ends[1+i] <= cut {
				want[rc.stage] = rc.state
			}
		}
		want["probe"] = binState{Seeds: []uint64{uint64(cut)}}
		if err := r.Save("probe", want["probe"]); err != nil {
			t.Fatalf("cut %d: save after resume: %v", cut, err)
		}
		for _, st := range []*Store{r, mustResume(t, path)} {
			if got := len(st.Stages()); got != len(want) {
				t.Fatalf("cut %d: %d stages %v, want %d", cut, got, st.Stages(), len(want))
			}
			for stage, w := range want {
				var got binState
				if ok, err := st.Load(stage, &got); !ok || err != nil || !reflect.DeepEqual(got, w) {
					t.Fatalf("cut %d: stage %s = %+v (ok=%v err=%v), want %+v", cut, stage, got, ok, err, w)
				}
			}
		}
	}
}

func mustResume(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Resume(path, "h")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompactionBoundsTheLog: appends past the bound make Save rewrite
// the log with one record per stage, and the rewrite loses nothing.
func TestCompactionBoundsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s, err := Create(path, "h")
	if err != nil {
		t.Fatal(err)
	}
	state := binState{Values: make([]float64, 4096)} // a ~8 KB record
	for i := range state.Values {
		state.Values[i] = 0.5
	}
	largest := int64(0)
	for i := 0; i < 400; i++ {
		state.Seeds = []uint64{uint64(i)}
		if err := s.Save(fmt.Sprintf("stage%d", i%2), state); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, fi.Size())
	}
	if largest > compactMinBytes+64<<10 {
		t.Errorf("log grew to %d bytes, want compaction near %d", largest, compactMinBytes)
	}
	r := mustResume(t, path)
	for i, stage := range []string{"stage0", "stage1"} {
		var got binState
		if ok, err := r.Load(stage, &got); !ok || err != nil || got.Seeds[0] != uint64(398+i) {
			t.Fatalf("%s after compaction: ok=%v err=%v seeds=%v", stage, ok, err, got.Seeds)
		}
	}
}

// TestConcurrentSaves: goroutines saving their own stages at once (as a
// coordinator's species ledgers do) leave a log that resumes with each
// stage's last state.
func TestConcurrentSaves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s, err := Create(path, "h")
	if err != nil {
		t.Fatal(err)
	}
	const writers, saves = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < saves; i++ {
				if err := s.Save(fmt.Sprintf("stage%d", w), binState{Seeds: []uint64{uint64(w), uint64(i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	r := mustResume(t, path)
	for w := 0; w < writers; w++ {
		var got binState
		if ok, err := r.Load(fmt.Sprintf("stage%d", w), &got); !ok || err != nil || !reflect.DeepEqual(got.Seeds, []uint64{uint64(w), saves - 1}) {
			t.Errorf("stage%d = %+v (ok=%v err=%v), want its last save", w, got, ok, err)
		}
	}
}
