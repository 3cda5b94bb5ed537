package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCorruptCheckpointTyped drives the disk trust boundary: a damaged
// checkpoint file must surface a *CorruptError carrying the file path and
// the decode cause, so CLIs can tell users which file to delete.
func TestCorruptCheckpointTyped(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		body string
	}{
		{"truncated", `{"version":1,"config_hash":"h","stages":{"a":`},
		{"not json", "\x00\x01garbage"},
		{"wrong type", `[1,2,3]`},
		{"future version", `{"version":99,"config_hash":"h","stages":{}}`},
		{"empty file", ``},
		{"torn header", `{"version":2,"config_hash":"h"}`},
		{"corrupt middle record", "{\"version\":2,\"config_hash\":\"h\"}\n" +
			`{"stage":"a","state":1}` + "\n" + `{"stage":"b","sta` + "\n" + `{"stage":"c","state":3}` + "\n"},
		{"version 3", "{\"version\":3,\"config_hash\":\"h\"}\n"},
		// The single JSON document of version 1, as earlier builds wrote it
		// indented, and on one line.
		{"version 1 indented", "{\n  \"version\": 1,\n  \"config_hash\": \"h\",\n  \"stages\": {\n    \"vdd0.7/fit/alpha\": {\n      \"seeds\": [\n        1\n      ]\n    }\n  }\n}"},
		{"version 1 one line", `{"version":1,"config_hash":"h","stages":{"vdd0.7/fit/alpha":{"seeds":[1]}}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".json")
			if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Resume(path, "h")
			if err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T is not *CorruptError: %v", err, err)
			}
			if ce.Path != path {
				t.Errorf("CorruptError.Path = %q, want %q", ce.Path, path)
			}
			if ce.Cause == nil {
				t.Error("CorruptError.Cause is nil")
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name the file", err)
			}
		})
	}
	// A missing file is NOT corruption — it must stay an untyped I/O error
	// so "never ran" and "damaged" remediation advice differ.
	_, err := Resume(filepath.Join(dir, "absent.json"), "h")
	var ce *CorruptError
	if errors.As(err, &ce) {
		t.Errorf("missing file misreported as corruption: %v", err)
	}
}

// TestCorruptStageTyped verifies that stage-level decode failures (valid
// file, wrong shape inside a slot) also surface as *CorruptError naming the
// stage.
func TestCorruptStageTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s, err := Create(path, "h")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("pof", map[string]string{"k": "not-a-number"}); err != nil {
		t.Fatal(err)
	}
	var into map[string]float64
	_, err = s.Load("pof", &into)
	if err == nil {
		t.Fatal("mismatched stage shape accepted")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CorruptError: %v", err, err)
	}
	if ce.Stage != "pof" {
		t.Errorf("CorruptError.Stage = %q, want %q", ce.Stage, "pof")
	}
	if ce.Path != path {
		t.Errorf("CorruptError.Path = %q, want %q", ce.Path, path)
	}
}
