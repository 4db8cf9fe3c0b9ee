package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file holds the one model of a scrape, Exposition, and its one
// writer, Exposition.Write: a shard's /metrics writes its registry's
// Exposition, and the router's /metrics writes its own registry's
// Exposition with every shard's scrape summed in (Exposition.Add), so
// one series renders the same bytes on both. ParseExposition is a
// minimal validating parser for the text format, enough to read a
// shard's scrape back and to let tests look up sample values.

// Sample is one parsed exposition line: a metric instance and its value.
type Sample struct {
	// Name is the sample name as written (histogram expansions keep
	// their _bucket/_sum/_count suffixes).
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed scrape.
type Exposition struct {
	Samples []Sample
	// Types maps family name to the declared TYPE.
	Types map[string]string
	// Help maps family name to its HELP text, unescaped.
	Help map[string]string
}

// Value returns the single sample with the given name whose labels all
// match want (extra labels on the sample are allowed); it errors when
// no sample or several match.
func (e *Exposition) Value(name string, want map[string]string) (float64, error) {
	var found []Sample
next:
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		for k, v := range want {
			if s.Labels[k] != v {
				continue next
			}
		}
		found = append(found, s)
	}
	if len(found) != 1 {
		return 0, fmt.Errorf("obs: %d samples match %s%v, want exactly 1", len(found), name, want)
	}
	return found[0].Value, nil
}

// Add sums o into e. A sample whose name and label set e already holds
// adds its value to e's; any other is appended, so first-seen order is
// kept. Summing is the fleet total for every type: counters add, gauges
// (entries, in-flight, queue depths) add, and histogram buckets add
// bucket-wise because every shard emits the same bounds. A family keeps
// the TYPE and the HELP it had first.
func (e *Exposition) Add(o *Exposition) {
	e.Types = keepFirst(e.Types, o.Types)
	e.Help = keepFirst(e.Help, o.Help)
	at := make(map[string]int, len(e.Samples)+len(o.Samples))
	for i, s := range e.Samples {
		at[s.Name+braced(labelString(s.Labels, ""))] = i
	}
	for _, s := range o.Samples {
		id := s.Name + braced(labelString(s.Labels, ""))
		if i, ok := at[id]; ok {
			e.Samples[i].Value += s.Value
			continue
		}
		at[id] = len(e.Samples)
		e.Samples = append(e.Samples, s)
	}
}

// keepFirst adds to dst every entry of src whose key it lacks.
func keepFirst(dst, src map[string]string) map[string]string {
	if dst == nil {
		dst = make(map[string]string, len(src))
	}
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
	return dst
}

// Write renders e in the text format: families in the order of their
// first sample, each under its HELP (if any) and TYPE lines and holding
// its samples in order, labels sorted by name.
func (e *Exposition) Write(w io.Writer) error {
	var fams []string
	byFam := make(map[string][]Sample)
	for _, s := range e.Samples {
		fam := familyOf(s.Name, e.Types)
		if fam == "" {
			fam = s.Name
		}
		if _, ok := byFam[fam]; !ok {
			fams = append(fams, fam)
		}
		byFam[fam] = append(byFam[fam], s)
	}
	bw := bufio.NewWriter(w)
	for _, fam := range fams {
		if help := e.Help[fam]; help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam, escapeHelp.Replace(help))
		}
		if typ := e.Types[fam]; typ != "" {
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, typ)
		}
		for _, s := range byFam[fam] {
			fmt.Fprintf(bw, "%s%s %s\n", s.Name, braced(labelString(s.Labels, "")), formatValue(s.Value))
		}
	}
	return bw.Flush()
}

// braced wraps a rendered label set in {}; empty label sets render as
// nothing.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// escapeHelp escapes a HELP text: backslash and newline only (quotes
// are legal in help text); unescapeHelp undoes it.
var (
	escapeHelp   = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	unescapeHelp = strings.NewReplacer(`\\`, `\`, `\n`, "\n")
)

// formatValue writes integral values as integers and any other as the
// shortest float that parses back to it.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseExposition parses and validates a text-format scrape: every
// non-comment line must be `name[{labels}] value`, names and labels
// must be well-formed, a family has at most one HELP and one TYPE line,
// TYPE declarations must precede their samples, and histogram bucket
// series must be cumulative with a trailing +Inf bucket matching
// _count. It returns the parsed samples, HELP texts and TYPEs, or the
// first format violation.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Types: make(map[string]string), Help: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if help, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(help, " ")
			if !metricName.MatchString(name) {
				return nil, fmt.Errorf("obs: line %d: invalid family name %q", lineNo, name)
			}
			if _, dup := e.Help[name]; dup {
				return nil, fmt.Errorf("obs: line %d: duplicate HELP for %q", lineNo, name)
			}
			e.Help[name] = unescapeHelp.Replace(text)
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, typ := fields[2], fields[3]
				if !metricName.MatchString(name) {
					return nil, fmt.Errorf("obs: line %d: invalid family name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("obs: line %d: invalid type %q", lineNo, typ)
				}
				if _, dup := e.Types[name]; dup {
					return nil, fmt.Errorf("obs: line %d: duplicate TYPE for %q", lineNo, name)
				}
				e.Types[name] = typ
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		if fam := familyOf(s.Name, e.Types); fam == "" {
			return nil, fmt.Errorf("obs: line %d: sample %q precedes its TYPE declaration", lineNo, s.Name)
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, e.checkHistograms()
}

// familyOf maps a sample name to its declared family, accounting for
// histogram expansion suffixes.
func familyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suffix)
		if ok && types[base] == "histogram" {
			return base
		}
	}
	return ""
}

// parseSampleLine parses `name[{labels}] value`.
func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return s, fmt.Errorf("no value on sample line %q", line)
	}
	s.Name = line[:nameEnd]
	if !metricName.MatchString(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest := line[nameEnd:]
	if line[nameEnd] == '{' {
		var err error
		if rest, err = parseLabels(rest[1:], s.Labels); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp may follow the value; the registry never writes one,
	// so reject trailing fields outright.
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `k="v",k2="v2"}` into out: the label set up to
// its closing brace, which it looks for outside the quoted values. It
// returns what follows the brace.
func parseLabels(in string, out map[string]string) (string, error) {
	for {
		if in == "" {
			return "", fmt.Errorf("unterminated label set")
		}
		if in[0] == '}' {
			return in[1:], nil
		}
		eq := strings.IndexByte(in, '=')
		if eq < 0 {
			return "", fmt.Errorf("label without value")
		}
		name := in[:eq]
		if !labelName.MatchString(name) && name != "le" {
			return "", fmt.Errorf("invalid label name %q", name)
		}
		in = in[eq+1:]
		if len(in) == 0 || in[0] != '"' {
			return "", fmt.Errorf("unquoted label value for %q", name)
		}
		in = in[1:]
		var sb strings.Builder
		closed := false
		for i := 0; i < len(in); i++ {
			c := in[i]
			if c == '\\' {
				if i+1 >= len(in) {
					return "", fmt.Errorf("dangling escape in label %q", name)
				}
				i++
				switch in[i] {
				case '\\':
					sb.WriteByte('\\')
				case '"':
					sb.WriteByte('"')
				case 'n':
					sb.WriteByte('\n')
				default:
					return "", fmt.Errorf("invalid escape \\%c in label %q", in[i], name)
				}
				continue
			}
			if c == '"' {
				closed = true
				in = in[i+1:]
				break
			}
			sb.WriteByte(c)
		}
		if !closed {
			return "", fmt.Errorf("unterminated value for label %q", name)
		}
		if _, dup := out[name]; dup {
			return "", fmt.Errorf("duplicate label %q", name)
		}
		out[name] = sb.String()
		in = strings.TrimPrefix(in, ",")
	}
}

// checkHistograms validates every histogram family: per instance the
// bucket counts must be non-decreasing in le, end with a +Inf bucket,
// and agree with the instance's _count.
func (e *Exposition) checkHistograms() error {
	type inst struct {
		lastLe    float64
		lastCount float64
		sawInf    bool
		infCount  float64
		started   bool
	}
	instances := map[string]*inst{}
	counts := map[string]float64{}
	// An instance is its family and its label set; a bucket drops le.
	instKey := func(s Sample, drop string) string {
		return familyOf(s.Name, e.Types) + braced(labelString(s.Labels, drop))
	}
	for _, s := range e.Samples {
		fam := familyOf(s.Name, e.Types)
		if e.Types[fam] != "histogram" {
			continue
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			key := instKey(s, "le")
			in := instances[key]
			if in == nil {
				in = &inst{}
				instances[key] = in
			}
			le := s.Labels["le"]
			if le == "" {
				return fmt.Errorf("obs: histogram bucket of %s without le label", fam)
			}
			if le == "+Inf" {
				in.sawInf, in.infCount = true, s.Value
			} else {
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("obs: bad le %q on %s: %v", le, fam, err)
				}
				if in.started && b <= in.lastLe {
					return fmt.Errorf("obs: %s buckets out of order at le=%q", fam, le)
				}
				in.lastLe = b
			}
			if s.Value < in.lastCount {
				return fmt.Errorf("obs: %s bucket counts not cumulative at le=%q", fam, le)
			}
			in.lastCount, in.started = s.Value, true
		case strings.HasSuffix(s.Name, "_count"):
			counts[instKey(s, "")] = s.Value
		}
	}
	for key, in := range instances {
		if !in.sawInf {
			return fmt.Errorf("obs: histogram instance %q has no +Inf bucket", key)
		}
		if c, ok := counts[key]; ok && c != in.infCount {
			return fmt.Errorf("obs: histogram instance %q: +Inf bucket %v != _count %v", key, in.infCount, c)
		}
	}
	return nil
}
