package obs

import (
	"net/http"
	"net/http/pprof"
)

// This file is the module's only permitted import of net/http/pprof
// (TestPprofConfinedToObs enforces it). The package registers handlers
// on http.DefaultServeMux as an import side effect, which a daemon with
// its own mux neither wants nor serves; mounting explicitly keeps the
// profiling surface behind one deliberate, flag-gated call.

// RegisterPprof mounts the runtime profiling handlers under
// /debug/pprof/ on mux: the index, cmdline, CPU profile, symbol and
// execution-trace endpoints, plus every runtime profile (heap,
// goroutine, block, mutex, …) served by the index.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
