// The codec layer of the run service (DESIGN.md §14): a
// deterministic JSON encoding for RunResult (EncodeResult /
// DecodeResult — the HTTP wire format), the disk tier's entry, which
// stores the request as JSON beside its result (EncodeEntry /
// DecodeEntry), and PresentResult, the single render dispatch that
// turns a stored (request, result) pair back into the exact rendered
// text. Together they let a result land on disk, outlive the process,
// and still render byte-for-byte what the original run printed — the
// cold-start contract of internal/cache/disk. The canonical request
// encoding (RunRequest.Canonical) is write-only: it is the content
// address, and nothing parses it back.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/apps"
	"repro/internal/cache"
)

// EncodeResult serializes a result as JSON. The bytes are
// deterministic for a fixed result: encoding/json sorts map keys
// (including the TextMarshaler stat-grid keys), so equal results
// always encode identically.
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

// The disk tier's payload is the request beside the result it
// produced: {"request":<RunRequest>,"result":<RunResult>}. The
// request's JSON carries exactly what Canonical encodes (the trace
// flags are tagged out). Only this file knows the layout; callers get
// the result's bytes as a span of the payload.

// EncodeEntry serializes a (request, result) pair as the disk tier's
// payload — the bytes json.Marshal gives the pair as a struct — and
// returns with it the span of the payload that is the result's JSON,
// exactly EncodeResult's bytes.
func EncodeEntry(req RunRequest, res *RunResult) (payload, result []byte, err error) {
	rq, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	rs, err := json.Marshal(res)
	if err != nil {
		return nil, nil, err
	}
	payload = make([]byte, 0, len(`{"request":,"result":}`)+len(rq)+len(rs))
	payload = append(append(append(payload, `{"request":`...), rq...), `,"result":`...)
	start := len(payload)
	payload = append(append(payload, rs...), '}')
	return payload, payload[start : len(payload)-1], nil
}

// DecodeEntry parses an EncodeEntry payload filed under key and
// returns the request, the result and the result's span of the
// payload. The entry is accepted only if its object holds nothing but
// one request and one result, neither names a field this build lacks,
// nothing trails it, and its request re-encodes to that key — so a
// decoded entry is always the whole result of the request it claims to
// be, and the span is that result's JSON as stored. Anything else (an
// older result-only payload, an entry from a build whose result carried
// more, a request under another key) is an error, which the disk
// tier's reader treats as a miss.
func DecodeEntry(key cache.Key, b []byte) (RunRequest, *RunResult, []byte, error) {
	d := entryDecoders.Get().(*entryDecoder)
	req, res, span, err := d.decode(b)
	if err != nil {
		return RunRequest{}, nil, nil, fmt.Errorf("bench: decoding entry: %w", err)
	}
	// Only a decoder that read exactly one entry goes back: a failed
	// one may keep a sticky error or unread bytes.
	d.in.Reset(nil)
	entryDecoders.Put(d)
	if res == nil {
		return RunRequest{}, nil, nil, fmt.Errorf("bench: entry carries no result")
	}
	if req.Key() != key {
		return RunRequest{}, nil, nil, fmt.Errorf("bench: entry request does not match its key %s", key)
	}
	return req, res, span, nil
}

// entryDecoder is a strict entry decoder over a reader DecodeEntry
// points at each payload in turn. A json.Decoder reads through its own
// buffer, grown from 512 bytes by doubling, which costs about twice the
// entry's size per fresh decoder; on the run service's disk reads that
// was 5 % more allocation per request. A pooled decoder keeps its
// buffer, so decoding allocates what json.Unmarshal would.
type entryDecoder struct {
	in  bytes.Reader
	dec *json.Decoder
}

var entryDecoders = sync.Pool{New: func() any {
	d := &entryDecoder{}
	d.dec = json.NewDecoder(&d.in)
	d.dec.DisallowUnknownFields()
	return d
}}

// decode walks the entry object key by key, so the decoder's input
// offsets bracket the result's value. Keys must be spelled exactly and
// appear at most once: a repeated result would merge into one value no
// single span holds.
func (d *entryDecoder) decode(b []byte) (req RunRequest, res *RunResult, span []byte, err error) {
	d.in.Reset(b)
	base := d.dec.InputOffset() // a pooled decoder counts every entry it read
	if t, err := d.dec.Token(); err != nil || t != json.Delim('{') {
		return req, nil, nil, fmt.Errorf("not a JSON object")
	}
	var seenReq, seenRes bool
	for d.dec.More() {
		t, err := d.dec.Token()
		if err != nil {
			return req, nil, nil, err
		}
		switch {
		case t == "request" && !seenReq:
			seenReq = true
			err = d.dec.Decode(&req)
		case t == "result" && !seenRes:
			seenRes = true
			// The offset after the key precedes the colon, which the
			// decoder consumes on the way to the value.
			from := d.dec.InputOffset() - base
			if err = d.dec.Decode(&res); err == nil {
				span = bytes.TrimLeft(b[from:d.dec.InputOffset()-base], " \t\r\n:")
			}
		default:
			return req, nil, nil, fmt.Errorf("unknown or repeated key %v", t)
		}
		if err != nil {
			return req, nil, nil, err
		}
	}
	if _, err := d.dec.Token(); err != nil { // the closing brace
		return req, nil, nil, err
	}
	if _, err := d.dec.Token(); err != io.EOF {
		return req, nil, nil, fmt.Errorf("trailing data")
	}
	return req, res, span, nil
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

// PresentAppRows renders the generic app experiment: one table whose
// rows are a slot selection over every verified configuration, each
// labeled with its backend's Result.System. want filters rows by slot
// (apps.Slots); nil selects every row. The scenario engine and the run
// service's render endpoint both go through here, so the two print the
// same rows and differ only in the title each passes.
func PresentAppRows(w io.Writer, title string, want map[string]bool, res *RunResult) {
	var rows []row
	for _, ar := range res.Apps {
		for i, r := range ar.All() {
			if want == nil || want[apps.Slots[i]] {
				rows = append(rows, row{ar.Config, r.System, r})
			}
		}
	}
	fmt.Fprint(w, appLayout.render(title, rows))
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
