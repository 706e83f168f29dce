package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeEntry drives the disk entry decoder with arbitrary
// payloads, each filed under the key of the request it carries (found
// leniently) or, with wrongKey, under another. The decoder may not
// panic, and a payload it accepts must hold up: the request re-keys,
// the result span strictly decodes to the result, the span spliced into
// a reply is valid JSON whose result decodes equal to it, and the
// pair's EncodeEntry payload decodes and re-encodes to the same bytes.
// Seeds (a valid entry, one per way to refuse it) are under
// testdata/fuzz/FuzzDecodeEntry.
func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte(`{"request":{},"result":{}}`), false)
	f.Fuzz(func(t *testing.T, payload []byte, wrongKey bool) {
		var loose entryOracle
		json.Unmarshal(payload, &loose)
		key := loose.Request.Key()
		if wrongKey {
			key[0] ^= 1
		}
		req, res, span, err := DecodeEntry(key, payload)
		if err != nil {
			return
		}
		if wrongKey || req.Key() != key {
			t.Fatalf("accepted an entry whose request keys %s under %s", req.Key(), key)
		}

		dec := json.NewDecoder(bytes.NewReader(span))
		dec.DisallowUnknownFields()
		var fromSpan *RunResult
		if err := dec.Decode(&fromSpan); err != nil || dec.More() {
			t.Fatalf("result span %q does not decode on its own: %v", span, err)
		}
		if !reflect.DeepEqual(fromSpan, res) {
			t.Fatalf("result span decodes to %+v, the entry to %+v", fromSpan, res)
		}
		body := append(append([]byte(`{"address":"00","status":"done","result":`), span...), "}\n"...)
		var reply struct {
			Result *RunResult `json:"result"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatalf("spliced body %q: %v", body, err)
		}
		if !reflect.DeepEqual(reply.Result, res) {
			t.Fatalf("spliced body's result decodes to %+v, the entry to %+v", reply.Result, res)
		}

		again, result, err := EncodeEntry(req, res)
		if err != nil {
			t.Fatalf("EncodeEntry of an accepted entry: %v", err)
		}
		req2, res2, span2, err := DecodeEntry(key, again)
		if err != nil {
			t.Fatalf("DecodeEntry refused EncodeEntry's payload %q: %v", again, err)
		}
		if !bytes.Equal(span2, result) {
			t.Fatalf("decoded span %q, encoded %q", span2, result)
		}
		if third, _, _ := EncodeEntry(req2, res2); !bytes.Equal(third, again) {
			t.Fatalf("payload does not round-trip:\n%s\n%s", again, third)
		}
	})
}
