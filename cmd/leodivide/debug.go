package main

// The -debug-addr server: pprof, expvar and the obs metrics snapshot
// over HTTP for live inspection of long runs (full-scale `all`,
// `serve`). Importing net/http/pprof and expvar registers their handlers
// on the default mux; /metrics adds the obs text snapshot.

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"sync"

	"leodivide/internal/obs"
)

// publishMetricsOnce guards the process-global expvar registration
// (expvar.Publish panics on duplicate names).
var publishMetricsOnce sync.Once

// startDebugServer serves pprof, expvar and /metrics on addr. It
// returns the bound address (useful with ":0") or an error if the
// listener cannot be opened; the server itself runs until process exit.
func startDebugServer(addr string) (string, error) {
	publishMetricsOnce.Do(func() {
		expvar.Publish("leodivide", expvar.Func(func() any {
			return obs.Default.Snapshot()
		}))
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			//lint:ignore errdrop HTTP response write; a disconnected debug client is not actionable
			obs.Default.Snapshot().WriteText(w)
		})
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debug server: %w", err)
	}
	go func() {
		// The process exits with main; serving errors after a successful
		// bind are not actionable.
		//lint:ignore errdrop serving errors after a successful bind are not actionable; the process exits with main
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr().String(), nil
}
