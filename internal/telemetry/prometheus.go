// Prometheus text exposition (version 0.0.4) for the tracer's stage
// histograms, plus small append-style helpers the server uses to add its
// own gauges and counters, and a strict-enough parser used by tests and
// the CI smoke to assert a scrape is well-formed.
package telemetry

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"persistbarriers/internal/hist"
)

// AppendMetricHeader appends the # HELP / # TYPE preamble for a metric.
func AppendMetricHeader(dst []byte, name, typ, help string) []byte {
	dst = append(dst, "# HELP "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, help...)
	dst = append(dst, "\n# TYPE "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, typ...)
	dst = append(dst, '\n')
	return dst
}

// AppendSample appends one sample line: name{labels} value. labels is
// the pre-rendered label body without braces ("" for none).
func AppendSample(dst []byte, name, labels string, value float64) []byte {
	dst = append(dst, name...)
	if labels != "" {
		dst = append(dst, '{')
		dst = append(dst, labels...)
		dst = append(dst, '}')
	}
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, value, 'g', -1, 64)
	dst = append(dst, '\n')
	return dst
}

// AppendUintSample is AppendSample for exact integer counters.
func AppendUintSample(dst []byte, name, labels string, value uint64) []byte {
	dst = append(dst, name...)
	if labels != "" {
		dst = append(dst, '{')
		dst = append(dst, labels...)
		dst = append(dst, '}')
	}
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, value, 10)
	dst = append(dst, '\n')
	return dst
}

// AppendHistogram renders h as a Prometheus histogram: cumulative
// buckets, +Inf, _sum and _count. The le bounds are the power-of-two
// ones (0, 1, 3, 7, 15, ...): a line is emitted where an octave of the
// layout ends, carrying the exact sum of the sub-buckets below it, so a
// scrape stays one line per octave while _sum is the exact h.Sum. Only
// octaves up to the highest nonzero bucket are emitted. scale converts
// the observed unit to the exposition unit (1 for cycles and batch
// sizes; 1e-9 for nanoseconds to seconds). The caller appends the
// # HELP / # TYPE preamble once via AppendMetricHeader.
func AppendHistogram(dst []byte, name, labels string, h hist.Hist, scale float64) []byte {
	bucketLine := func(le string, cum uint64) {
		dst = append(dst, name...)
		dst = append(dst, "_bucket{"...)
		if labels != "" {
			dst = append(dst, labels...)
			dst = append(dst, ',')
		}
		dst = append(dst, "le=\""...)
		dst = append(dst, le...)
		dst = append(dst, "\"} "...)
		dst = strconv.AppendUint(dst, cum, 10)
		dst = append(dst, '\n')
	}
	top := 0
	for b := hist.Buckets - 1; b > 0; b-- {
		if h.Counts[b] != 0 {
			top = b
			break
		}
	}
	var cum uint64
	for b := 0; b < hist.Buckets; b++ {
		cum += h.Counts[b]
		upper := hist.Upper(b)
		if upper&(upper+1) != 0 {
			continue // mid-octave
		}
		bucketLine(strconv.FormatFloat(float64(upper)*scale, 'g', -1, 64), cum)
		if b >= top {
			break
		}
	}
	bucketLine("+Inf", cum)
	dst = AppendSample(dst, name+"_sum", labels, float64(h.Sum)*scale)
	dst = AppendUintSample(dst, name+"_count", labels, cum)
	return dst
}

// StageMetricName is the exposition name of the per-segment duration
// histograms.
const StageMetricName = "pmkv_stage_duration_seconds"

// AppendStageMetrics renders every shard's stage-segment histograms onto
// dst in Prometheus text format.
func (t *Tracer) AppendStageMetrics(dst []byte) []byte {
	if t == nil {
		return dst
	}
	dst = AppendMetricHeader(dst, StageMetricName, "histogram",
		"Wall-clock duration of each pmkv pipeline stage segment, per shard.")
	for shard := range t.shards {
		// The read-path rows ride along as synthetic stages: end-to-end
		// GET latency served from the index vs through the mailbox.
		hs := t.shards[shard].snapshot()
		for i := range hs {
			labels := fmt.Sprintf("shard=%q,stage=%q", strconv.Itoa(shard), stageName(i))
			dst = AppendHistogram(dst, StageMetricName, labels, hs[i], 1e-9)
		}
	}
	dst = AppendMetricHeader(dst, "pmkv_stage_ops_total", "counter",
		"Completed operations folded into the stage tracer, per shard.")
	for shard := range t.shards {
		dst = AppendUintSample(dst, "pmkv_stage_ops_total",
			fmt.Sprintf("shard=%q", strconv.Itoa(shard)), t.shards[shard].rec.Len())
	}
	return dst
}

// ValidateExposition checks that data is well-formed Prometheus text
// exposition: every non-comment line is `name{labels} value`, names
// are legal, every sample of a TYPEd histogram has monotonically
// nondecreasing cumulative buckets per label set, and each histogram's
// +Inf bucket equals its _count. Tests and the CI smoke use it to assert
// a live scrape parses.
func ValidateExposition(data []byte) error {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	type histState struct {
		lastCum  map[string]float64 // label set (minus le) -> last cumulative value
		lastLe   map[string]float64
		infSeen  map[string]float64
		countVal map[string]float64
	}
	hists := make(map[string]*histState)
	types := make(map[string]string)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " ")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
				if fields[3] == "histogram" {
					hists[fields[2]] = &histState{
						lastCum:  map[string]float64{},
						lastLe:   map[string]float64{},
						infSeen:  map[string]float64{},
						countVal: map[string]float64{},
					}
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !validMetricName(name) {
			return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		base, suffix := histBase(name)
		st, isHist := hists[base]
		if !isHist || types[base] != "histogram" {
			continue
		}
		key, le, hasLe := splitLe(labels)
		switch suffix {
		case "_bucket":
			if !hasLe {
				return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
			}
			if le == "+Inf" {
				st.infSeen[key] = value
				break
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("line %d: bad le %q: %v", lineNo, le, err)
			}
			if prev, ok := st.lastLe[key]; ok && bound <= prev {
				return fmt.Errorf("line %d: le bounds not increasing for %s{%s}", lineNo, base, key)
			}
			if prev, ok := st.lastCum[key]; ok && value < prev {
				return fmt.Errorf("line %d: cumulative bucket decreased for %s{%s}", lineNo, base, key)
			}
			st.lastLe[key] = bound
			st.lastCum[key] = value
		case "_count":
			st.countVal[key] = value
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for base, st := range hists {
		keys := make([]string, 0, len(st.infSeen))
		for k := range st.infSeen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			inf := st.infSeen[k]
			if cnt, ok := st.countVal[k]; !ok || cnt != inf {
				return fmt.Errorf("%s{%s}: +Inf bucket %g != _count %g", base, k, inf, st.countVal[k])
			}
			if last, ok := st.lastCum[k]; ok && inf < last {
				return fmt.Errorf("%s{%s}: +Inf bucket %g below last cumulative %g", base, k, inf, last)
			}
		}
	}
	return nil
}

// parseSample splits one exposition line into name, label body, value.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		k := strings.IndexByte(rest, ' ')
		if k < 0 {
			return "", "", 0, fmt.Errorf("no value in %q", line)
		}
		name = rest[:k]
		rest = strings.TrimSpace(rest[k:])
	}
	// A timestamp may follow the value; take the first field.
	if k := strings.IndexByte(rest, ' '); k >= 0 {
		rest = rest[:k]
	}
	value, err = strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad value in %q: %v", line, err)
	}
	return name, labels, value, nil
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// histBase strips a histogram sample suffix.
func histBase(name string) (base, suffix string) {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, s) {
			return strings.TrimSuffix(name, s), s
		}
	}
	return name, ""
}

// splitLe removes the le pair from a label body, returning the remaining
// label set (the histogram series key) and the le value.
func splitLe(labels string) (key, le string, ok bool) {
	parts := strings.Split(labels, ",")
	kept := parts[:0]
	for _, p := range parts {
		if strings.HasPrefix(p, "le=") {
			le = strings.Trim(strings.TrimPrefix(p, "le="), "\"")
			ok = true
			continue
		}
		kept = append(kept, p)
	}
	return strings.Join(kept, ","), le, ok
}
