// The metrics endpoint: the one piece of HTTP the observability
// substrate owns. Everything else about serving (mux, lifecycle,
// drain) belongs to the caller — internal/simd mounts this under
// /metrics, and `scenario run -metrics=ADDR` serves the same handler
// during long sweeps, so a scrape sees identical series either way.
package obs

import "net/http"

// contentType is the Prometheus text exposition format version
// WriteText produces.
const contentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry in text exposition format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", contentType)
		r.WriteText(w)
	})
}
