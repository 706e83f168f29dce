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

// entry is the disk tier's payload: the request beside the result it
// produced. The request's JSON carries exactly what Canonical encodes
// (the trace flags are tagged out).
type entry struct {
	Request RunRequest `json:"request"`
	Result  *RunResult `json:"result"`
}

// EncodeEntry serializes a (request, result) pair as the disk tier's
// payload. Its length is also the memory tier's size for the pair.
func EncodeEntry(req RunRequest, res *RunResult) ([]byte, error) {
	return json.Marshal(entry{Request: req, Result: res})
}

// DecodeEntry parses an EncodeEntry payload filed under key. The entry
// is accepted only if it names no field this build lacks and its
// request re-encodes to that key, so a decoded entry is always the
// whole result of the request it claims to be; anything else (an older
// result-only payload, an entry from a build whose result carried more,
// a request under another key) is an error, which the disk tier's
// reader treats as a miss.
func DecodeEntry(key cache.Key, b []byte) (RunRequest, *RunResult, error) {
	d := entryDecoders.Get().(*entryDecoder)
	d.in.Reset(b)
	var e entry
	if err := d.dec.Decode(&e); err != nil {
		return RunRequest{}, nil, fmt.Errorf("bench: decoding entry: %w", err)
	}
	if _, err := d.dec.Token(); err != io.EOF {
		return RunRequest{}, nil, fmt.Errorf("bench: entry has trailing data")
	}
	// Only a decoder that read exactly one entry goes back: a failed
	// one may keep a sticky error or unread bytes.
	d.in.Reset(nil)
	entryDecoders.Put(d)
	if e.Result == nil {
		return RunRequest{}, nil, fmt.Errorf("bench: entry carries no result")
	}
	if e.Request.Key() != key {
		return RunRequest{}, nil, fmt.Errorf("bench: entry request does not match its key %s", key)
	}
	return e.Request, e.Result, nil
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
