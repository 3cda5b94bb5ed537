package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// Exposition-format line shapes accepted by LintExposition.
var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$`)
	promLeRe     = regexp.MustCompile(`le="([^"]+)"`)
)

// LintExposition validates a Prometheus text-format payload the way the
// telemetry CI gate needs: every metric family has a `# HELP` and `# TYPE`
// line (HELP first) before its first sample, family names are legal and
// never redeclared, histogram `_bucket` series are cumulative (monotone
// non-decreasing in `le` order) within each labelset, end at `le="+Inf"`,
// and agree with the matching labelset's `_count`. Labeled families (one
// histogram per tenant, say) carry an independent cumulative sequence per
// labelset — the checks key on family plus the non-le labels, so a fresh
// labelset legitimately resets the le sequence. The first violation is
// returned as an error naming the line; a clean payload returns nil.
func LintExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	help := map[string]bool{}
	typ := map[string]string{}
	// Histogram state keys: family + "\x00" + non-le labels, one cumulative
	// sequence per labelset.
	lastBucket := map[string]float64{} // labelset → last cumulative bucket count
	lastLe := map[string]float64{}     // labelset → last le bound (+Inf = Inf)
	sawInf := map[string]bool{}
	counts := map[string]float64{}  // labelset → _count sample
	histSets := map[string]string{} // labelset key → family (for final checks)
	histFams := map[string]bool{}   // family → saw any bucket sample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				continue // free-form comment
			}
			name := f[2]
			if !promNameRe.MatchString(name) {
				return fmt.Errorf("line %d: illegal metric name %q", lineNo, name)
			}
			switch f[1] {
			case "HELP":
				if help[name] {
					return fmt.Errorf("line %d: duplicate HELP for %q", lineNo, name)
				}
				help[name] = true
			case "TYPE":
				if len(f) < 4 {
					return fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				if !help[name] {
					return fmt.Errorf("line %d: TYPE %q without a preceding HELP", lineNo, name)
				}
				if _, dup := typ[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				typ[name] = f[3]
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: unparseable sample %q", lineNo, line)
		}
		series, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: bad sample value %q: %v", lineNo, valStr, err)
		}
		family := series
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(series, suffix); base != series && typ[base] != "" {
				family = base
				break
			}
		}
		if typ[family] == "" {
			return fmt.Errorf("line %d: sample %q has no TYPE declaration", lineNo, series)
		}
		if typ[family] == "histogram" && strings.HasSuffix(series, "_bucket") {
			le := promLeRe.FindStringSubmatch(labels)
			if le == nil {
				return fmt.Errorf("line %d: histogram bucket without an le label", lineNo)
			}
			key := family + "\x00" + stripLe(labels)
			histSets[key] = family
			histFams[family] = true
			var bound float64
			if le[1] == "+Inf" {
				bound = math.Inf(1)
				sawInf[key] = true
			} else if bound, err = strconv.ParseFloat(le[1], 64); err != nil {
				return fmt.Errorf("line %d: bad le bound %q: %v", lineNo, le[1], err)
			}
			if prev, ok := lastLe[key]; ok && bound <= prev {
				return fmt.Errorf("line %d: %s buckets out of le order (%g after %g)", lineNo, family, bound, prev)
			}
			if prev, ok := lastBucket[key]; ok && val < prev {
				return fmt.Errorf("line %d: %s cumulative bucket decreases (%g after %g)", lineNo, family, val, prev)
			}
			lastLe[key] = bound
			lastBucket[key] = val
		}
		if strings.HasSuffix(series, "_count") {
			counts[family+"\x00"+stripLe(labels)] = val
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading exposition: %w", err)
	}
	for family, t := range typ {
		if t == "histogram" && !histFams[family] {
			return fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", family)
		}
	}
	for key, family := range histSets {
		if !sawInf[key] {
			return fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", family)
		}
		if c, ok := counts[key]; ok && c != lastBucket[key] {
			return fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", family, lastBucket[key], c)
		}
	}
	return nil
}

// stripLe removes the `le="..."` pair from a label suffix, returning the
// canonical non-le labelset used to key per-labelset histogram state.
// Splitting on commas assumes label values carry no commas — true for the
// renderer's own output, where this linter runs.
func stripLe(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	parts := strings.Split(inner, ",")
	keep := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(strings.TrimSpace(p), "le=") {
			keep = append(keep, strings.TrimSpace(p))
		}
	}
	if len(keep) == 0 {
		return ""
	}
	return "{" + strings.Join(keep, ",") + "}"
}
