package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"finser"
)

// FuzzJobRequest drives the submit trust boundary the way handleSubmit does:
// decode the body, map it to a FlowConfig, validate. Whatever bytes arrive,
// the pipeline must never panic, and every rejection must be a decode error
// or one of the typed request/config errors the handler maps to HTTP 400.
func FuzzJobRequest(f *testing.F) {
	f.Add([]byte(`{"vdd":0.7}`))
	f.Add([]byte(`{"vdd":0.8,"rows":4,"cols":4,"pattern":"checkerboard","seed":42}`))
	f.Add([]byte(`{"vdd":0.8,"pattern":"plaid"}`))
	f.Add([]byte(`{"vdd":-1,"samples":-5,"timeout_seconds":-0.5}`))
	f.Add([]byte(`{"vdd":1e308,"alpha_rate":1e308,"workers":2147483647}`))
	f.Add([]byte(`{"vdd":0.7,"rows"`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"vdd":0.8,"alpha_bins":9223372036854775807}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // decode errors are reported verbatim as 400s
		}
		cfg, err := req.flowConfig()
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("flowConfig returned untyped error %T: %v", err, err)
			}
			return
		}
		if _, err := cfg.Validate(); err != nil {
			var ce *finser.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate returned untyped error %T: %v", err, err)
			}
		}
	})
}
