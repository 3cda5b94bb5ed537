package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"finser"
)

// refEntry is the reference FIT of one workload × Vdd × species, produced by
// this benchmark (-make-reference): the mean over several seeds and the
// seed-to-seed standard deviation, which covers both the array Monte Carlo
// and the process-variation sampling of the characterization.
type refEntry struct {
	FIT float64 `json:"fit"`
	SD  float64 `json:"sd"`
	N   int     `json:"n"`
}

type reference struct {
	Note    string              `json:"note"`
	Entries map[string]refEntry `json:"entries"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

func refKey(workload string, vdd float64, species string) string {
	return fmt.Sprintf("%s/%.2f/%s", workload, vdd, species)
}

// refSigmas is how many combined standard deviations a FIT may sit from its
// reference. The check is statistical on purpose: an algorithm change that
// moves FIT bits within the Monte-Carlo error still passes it.
const refSigmas = 5

// checker counts checked operations and the ones that failed a check.
type checker struct {
	attempted, failed int
	problems          []string
}

// op records one operation; any problem marks it failed.
func (c *checker) op(problems []string) {
	c.attempted++
	if len(problems) == 0 {
		return
	}
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, problems...)
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// fitProblems checks one species' FIT: every value finite and
// non-negative, SEU + MBU = total, and agreement with the reference within
// refSigmas combined standard deviations.
func fitProblems(ref reference, key string, r finser.FITResult) []string {
	var p []string
	vals := []float64{r.TotalFIT, r.SEUFIT, r.MBUFIT, r.TotalFITErr}
	for _, pt := range r.Points {
		vals = append(vals, pt.Tot, pt.SEU, pt.MBU, pt.TotStdErr)
	}
	for _, v := range vals {
		if !finite(v) || v < 0 {
			p = append(p, fmt.Sprintf("%s: non-finite or negative value %g", key, v))
			break
		}
	}
	if d := math.Abs(r.SEUFIT + r.MBUFIT - r.TotalFIT); d > 1e-9*math.Max(r.TotalFIT, 1e-300) {
		p = append(p, fmt.Sprintf("%s: SEU %g + MBU %g != total %g", key, r.SEUFIT, r.MBUFIT, r.TotalFIT))
	}
	e, ok := ref.Entries[key]
	switch {
	case !ok:
		p = append(p, key+": no reference entry")
	case math.Abs(r.TotalFIT-e.FIT) > refSigmas*math.Hypot(e.SD, r.TotalFITErr):
		p = append(p, fmt.Sprintf("%s: FIT %g outside %g ± %d×%g", key, r.TotalFIT, e.FIT, refSigmas, math.Hypot(e.SD, r.TotalFITErr)))
	}
	return p
}

// relErr is the reported relative FIT error of one species result.
func relErr(r finser.FITResult) float64 { return ratio(r.TotalFITErr, r.TotalFIT) }

// relErrs collects reported relative FIT errors per Vdd × species.
type relErrs map[string][]float64

func (m relErrs) add(vdd float64, alpha, proton finser.FITResult) {
	for _, sp := range []struct {
		name string
		res  finser.FITResult
	}{{"alpha", alpha}, {"proton", proton}} {
		k := fmt.Sprintf("%.2f/%s", vdd, sp.name)
		m[k] = append(m[k], relErr(sp.res))
	}
}

// max is fit_rel_err_max: the largest, over Vdd × species, of the median
// relative error across the run's operations. The median keeps one rare
// deep-tail job from setting the run's figure, so the metric moves when
// accuracy is traded for speed, not with the seed.
func (m relErrs) max() float64 {
	out := 0.0
	for _, xs := range m {
		out = math.Max(out, median(xs))
	}
	return out
}
