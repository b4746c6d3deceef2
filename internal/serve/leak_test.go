package serve

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain fails a passing run whose tests leave goroutines behind: the
// goroutine count gets a few seconds to settle back to what it was before
// the tests, and past that every stack is dumped. A fuzzing run is not
// checked: the fuzzing engine keeps a signal-handling goroutine of its own.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" && leaked(before) {
		code = 1
	}
	os.Exit(code)
}

// leaked waits for the goroutine count to fall to before, closing the
// default transport's idle connections as it goes, and reports whether it
// never did.
func leaked(before int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return false
		}
	}
	fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n", runtime.NumGoroutine(), before)
	pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
	return true
}
