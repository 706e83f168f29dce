// The codec layer of the run service (DESIGN.md §14): the canonical
// request encoding made readable again (DecodeCanonical), a
// deterministic JSON encoding for RunResult (EncodeResult /
// DecodeResult — the disk tier's payload and the HTTP wire format),
// and PresentResult, the single render dispatch that turns a stored
// (request, result) pair back into the exact rendered text. Together
// they let a result land on disk, outlive the process, and still
// render byte-for-byte what the original run printed — the cold-start
// contract of internal/cache/disk.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/apps"
)

// EncodeResult serializes a result as JSON. The bytes are
// deterministic for a fixed result: encoding/json sorts map keys
// (including the TextMarshaler stat-grid keys), so equal results
// always encode identically — which is what lets the disk tier hash
// the payload as its integrity check.
func EncodeResult(res *RunResult) ([]byte, error) {
	return json.Marshal(res)
}

// DecodeResult parses an EncodeResult payload.
func DecodeResult(b []byte) (*RunResult, error) {
	res := &RunResult{}
	if err := json.Unmarshal(b, res); err != nil {
		return nil, fmt.Errorf("bench: decoding result: %w", err)
	}
	return res, nil
}

// SizeBytes approximates the result's resident size as the length of
// its JSON encoding — the number the cache byte gauges report. It is
// an accounting figure, not an allocation measurement; encoding once
// per cache insert is noise next to the simulation that produced the
// result.
func (r *RunResult) SizeBytes() int64 {
	b, err := json.Marshal(r)
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// canonParser walks the canonical encoding line by line. The format
// is positional (Canonical writes fields in one fixed order), so the
// parser is strict and sequential: every line must be the one the
// grammar expects next.
type canonParser struct {
	lines []string
	pos   int
}

func (p *canonParser) done() bool { return p.pos >= len(p.lines) }

// peekPrefix reports whether the next line starts with prefix.
func (p *canonParser) peekPrefix(prefix string) bool {
	return !p.done() && strings.HasPrefix(p.lines[p.pos], prefix)
}

// field consumes "key=value" for the given key.
func (p *canonParser) field(key string) (string, error) {
	if p.done() {
		return "", fmt.Errorf("bench: canonical encoding truncated before %q", key)
	}
	line := p.lines[p.pos]
	val, ok := strings.CutPrefix(line, key+"=")
	if !ok {
		return "", fmt.Errorf("bench: canonical encoding: expected %q, got %q", key+"=", line)
	}
	p.pos++
	return val, nil
}

func (p *canonParser) intField(key string) (int, error) {
	s, err := p.field(key)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bench: canonical encoding: bad %s value %q", key, s)
	}
	return v, nil
}

// kvPairs consumes the run of "prefix.<name>=<int>" lines (the sorted
// Params / Knobs maps); nil when the run is empty, matching how an
// absent map encodes.
func (p *canonParser) kvPairs(prefix string) (map[string]int, error) {
	var m map[string]int
	for p.peekPrefix(prefix + ".") {
		line := p.lines[p.pos]
		p.pos++
		rest := line[len(prefix)+1:]
		name, val, ok := strings.Cut(rest, "=")
		if !ok {
			return nil, fmt.Errorf("bench: canonical encoding: malformed %s line %q", prefix, line)
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("bench: canonical encoding: bad %s value in %q", prefix, line)
		}
		if m == nil {
			m = map[string]int{}
		}
		m[name] = v
	}
	return m, nil
}

func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bench: canonical encoding: bad int list %q", s)
		}
		out[i] = v
	}
	return out, nil
}

func parseFloatList(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bench: canonical encoding: bad float list %q", s)
		}
		out[i] = v
	}
	return out, nil
}

// DecodeCanonical parses a canonical request encoding back into the
// request it encodes. Round-trip fidelity is the contract:
// DecodeCanonical(b).Canonical() == b for every b Canonical can
// produce — which is how the disk tier re-derives render parameters
// from a stored file without persisting anything beyond the
// canonical bytes and the result payload.
func DecodeCanonical(b []byte) (RunRequest, error) {
	var req RunRequest
	text := string(b)
	if !strings.HasSuffix(text, "\n") {
		return req, fmt.Errorf("bench: canonical encoding missing trailing newline")
	}
	p := &canonParser{lines: strings.Split(strings.TrimSuffix(text, "\n"), "\n")}

	if p.done() || !strings.HasPrefix(p.lines[0], "runrequest/v") {
		return req, fmt.Errorf("bench: not a canonical request encoding")
	}
	v, err := strconv.Atoi(strings.TrimPrefix(p.lines[0], "runrequest/v"))
	if err != nil {
		return req, fmt.Errorf("bench: bad canonical version line %q", p.lines[0])
	}
	if v != RequestVersion && v != RequestVersionPerturb {
		return req, fmt.Errorf("bench: unsupported canonical version %d (supported: %d, %d)",
			v, RequestVersion, RequestVersionPerturb)
	}
	req.Version = v
	p.pos++

	if req.Experiment, err = p.field("experiment"); err != nil {
		return req, err
	}
	if req.Params, err = p.kvPairs("param"); err != nil {
		return req, err
	}
	if req.App, err = p.field("app"); err != nil {
		return req, err
	}
	if req.N, err = p.intField("n"); err != nil {
		return req, err
	}
	if req.Steps, err = p.intField("steps"); err != nil {
		return req, err
	}
	seed, err := p.field("seed")
	if err != nil {
		return req, err
	}
	if req.Seed, err = strconv.ParseInt(seed, 10, 64); err != nil {
		return req, fmt.Errorf("bench: canonical encoding: bad seed %q", seed)
	}
	procs, err := p.field("procs")
	if err != nil {
		return req, err
	}
	if req.Procs, err = parseIntList(procs); err != nil {
		return req, err
	}
	if req.Knobs, err = p.kvPairs("knob"); err != nil {
		return req, err
	}
	if req.Machine.LatencyUS, err = p.intField("machine.latency_us"); err != nil {
		return req, err
	}
	if req.Machine.BandwidthMBs, err = p.intField("machine.bandwidth_mbs"); err != nil {
		return req, err
	}
	if v == RequestVersionPerturb {
		// The v2 perturbation block. Canonical emits v2 exactly when the
		// block is non-empty, so an empty block here cannot round-trip
		// (it would re-encode as v1) and is rejected.
		pert := &apps.Perturb{}
		if p.peekPrefix("perturb.cpu=") {
			s, _ := p.field("perturb.cpu")
			if pert.CPU, err = parseFloatList(s); err != nil {
				return req, err
			}
		}
		if p.peekPrefix("perturb.jitter_us=") {
			s, _ := p.field("perturb.jitter_us")
			if pert.JitterUS, err = strconv.ParseFloat(s, 64); err != nil {
				return req, fmt.Errorf("bench: canonical encoding: bad perturb.jitter_us %q", s)
			}
		}
		if p.peekPrefix("perturb.jitter_seed=") {
			s, _ := p.field("perturb.jitter_seed")
			if pert.JitterSeed, err = strconv.ParseInt(s, 10, 64); err != nil {
				return req, fmt.Errorf("bench: canonical encoding: bad perturb.jitter_seed %q", s)
			}
		}
		for p.peekPrefix("perturb.link.") {
			line := p.lines[p.pos]
			p.pos++
			key, val, ok := strings.Cut(strings.TrimPrefix(line, "perturb.link."), "=")
			pair, fieldName, ok2 := strings.Cut(key, ".")
			fs, ts, ok3 := strings.Cut(pair, "-")
			if !ok || !ok2 || !ok3 {
				return req, fmt.Errorf("bench: canonical encoding: malformed perturb link line %q", line)
			}
			from, err1 := strconv.Atoi(fs)
			to, err2 := strconv.Atoi(ts)
			fv, err3 := strconv.Atoi(val)
			if err1 != nil || err2 != nil || err3 != nil {
				return req, fmt.Errorf("bench: canonical encoding: malformed perturb link line %q", line)
			}
			// Consecutive lines for one (from, to) pair describe one
			// override (Canonical writes latency before bandwidth).
			if n := len(pert.Links); n == 0 || pert.Links[n-1].From != from || pert.Links[n-1].To != to {
				pert.Links = append(pert.Links, apps.LinkOverride{From: from, To: to})
			}
			l := &pert.Links[len(pert.Links)-1]
			switch fieldName {
			case "latency_us":
				l.LatencyUS = fv
			case "bandwidth_mbs":
				l.BandwidthMBs = fv
			default:
				return req, fmt.Errorf("bench: canonical encoding: unknown perturb link field in %q", line)
			}
		}
		if pert.IsZero() {
			return req, fmt.Errorf("bench: canonical v%d encoding carries no perturbation", v)
		}
		req.Machine.Perturb = pert
	}
	if p.peekPrefix("sweep.axis=") {
		axis, _ := p.field("sweep.axis")
		vals, err := p.field("sweep.values")
		if err != nil {
			return req, err
		}
		values, err := parseIntList(vals)
		if err != nil {
			return req, err
		}
		req.Sweep = &SweepAxis{Axis: axis, Values: values}
	}
	if p.peekPrefix("budget_sweep_kb=") {
		vals, _ := p.field("budget_sweep_kb")
		if req.BudgetSweepKB, err = parseIntList(vals); err != nil {
			return req, err
		}
	}
	if !p.done() {
		return req, fmt.Errorf("bench: canonical encoding: trailing line %q", p.lines[p.pos])
	}
	return req, nil
}

// PresentAppRows renders the generic app experiment: one table whose
// rows are a backend selection over every verified configuration.
// want filters rows by backend name; nil selects every row. The
// scenario engine and the run service's render endpoint both go
// through here, so a served result prints the same bytes a local
// scenario run would.
func PresentAppRows(w io.Writer, title string, want map[string]bool, res *RunResult) {
	tbl := &Table{Title: title}
	for _, ar := range res.Apps {
		for _, r := range ar.All() {
			if want != nil && !want[r.System] {
				continue
			}
			tbl.Rows = append(tbl.Rows, rowOf(ar.Config, r.System, r))
		}
	}
	fmt.Fprint(w, tbl.String())
	fmt.Fprintln(w, verified)
}

// PresentResult renders a result with its experiment's presenter,
// deriving the presentation parameters from the request that produced
// it — the render dispatch of the scenario engine for canned
// experiments and of the run service, where the request (not a
// scenario spec) is all that survives on disk. App
// results render every backend row under a request-derived title;
// per-spec variant filters and scenario names are presentation-only
// state the service deliberately does not persist.
func PresentResult(w io.Writer, req RunRequest, res *RunResult) error {
	if req.Experiment != res.Experiment {
		return fmt.Errorf("bench: request experiment %q does not match result experiment %q",
			req.Experiment, res.Experiment)
	}
	if req.Experiment == "app" {
		PresentAppRows(w, fmt.Sprintf("App %s (N=%d).", req.App, req.N), nil, res)
		return nil
	}
	e, ok := experiments[req.Experiment]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q", req.Experiment)
	}
	e.present(w, req.Params, res)
	return nil
}

// canonEqual reports whether two requests share a canonical encoding
// (and therefore a content address). Used by tests; cheap enough to
// live here.
func canonEqual(a, b RunRequest) bool {
	return bytes.Equal(a.Canonical(), b.Canonical())
}
