package main

import (
	"net/http"
	"testing"
)

func TestServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts: read-header %v, idle %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatal("a zero timeout means none")
	}
	if hs.Handler == nil {
		t.Fatal("handler not set")
	}
}
