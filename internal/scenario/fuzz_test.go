package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParse drives the YAML decoder and the typed decode behind it with
// arbitrary documents. Neither parser may panic; a document Parse
// accepts must parse to the same request key a second time, and its
// generic shape, re-encoded as JSON, must reach the same spec through
// ParseJSON. Seeds (every spec under scenarios/ plus hostile documents)
// are under testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Add([]byte("name: x\nexperiment: table1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ParseJSON(data)
		spec, err := Parse(data)
		if err != nil {
			return
		}
		key := spec.Request().Key()
		again, err := Parse(data)
		if err != nil {
			t.Fatalf("second Parse rejected an accepted document: %v", err)
		}
		if k := again.Request().Key(); k != key {
			t.Fatalf("second Parse keys %s, first %s", k, key)
		}
		doc, err := parseYAML(data)
		if err != nil {
			t.Fatalf("parseYAML rejected an accepted document: %v", err)
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("generic shape of an accepted document does not encode: %v", err)
		}
		js, err := ParseJSON(raw)
		if err != nil {
			t.Fatalf("ParseJSON rejected the JSON form of an accepted document: %v\n%s", err, raw)
		}
		if k := js.Request().Key(); k != key {
			t.Fatalf("JSON form keys %s, YAML %s\n%s", k, key, raw)
		}
		if js.Name != spec.Name || !reflect.DeepEqual(js.Variants, spec.Variants) ||
			!reflect.DeepEqual(js.Assert, spec.Assert) {
			t.Fatalf("JSON form decodes to %+v, YAML to %+v", js, spec)
		}
	})
}
