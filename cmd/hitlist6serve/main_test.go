package main

import (
	"testing"
	"time"

	"hitlist6/internal/serve"
)

// TestHTTPServerTimeouts pins that the API server bounds every
// connection phase, so a client holding a half-sent header or an unread
// response cannot pin a connection forever.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(serve.NewHandle(), serve.NewMetrics())
	if srv.Handler == nil {
		t.Fatal("server has no handler")
	}
	for _, tc := range []struct {
		name string
		got  time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout},
		{"ReadTimeout", srv.ReadTimeout},
		{"WriteTimeout", srv.WriteTimeout},
		{"IdleTimeout", srv.IdleTimeout},
	} {
		if tc.got <= 0 {
			t.Errorf("%s = %v, want > 0", tc.name, tc.got)
		}
	}
}
