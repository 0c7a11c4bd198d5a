// Package testutil holds shared test helpers. It is stdlib-only and must
// stay importable from every internal package's tests.
package testutil

import (
	"runtime"
	"strings"
	"time"
)

// TB is the subset of *testing.T that VerifyNoLeaks needs; taking an
// interface keeps the package free of a testing import in its API and lets
// benchmarks use the guard too.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// VerifyNoLeaks registers a cleanup that fails the test if any goroutine
// running this module's code (server connection handlers, client readers)
// outlives the test body. Goroutines already alive when the guard is
// installed are exempt, as is the goroutine running the check itself.
// Shutdown is asynchronous in places (connection teardown), so the check
// retries with backoff before declaring a leak.
func VerifyNoLeaks(t TB) {
	t.Helper()
	before := map[string]bool{}
	for id := range moduleGoroutines() {
		before[id] = true
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			var leaked []string
			for id, stack := range moduleGoroutines() {
				if !before[id] {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("testutil: %d goroutine(s) leaked:\n%s", len(leaked), strings.Join(leaked, "\n---\n"))
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// moduleGoroutines returns the stacks of live goroutines executing this
// module's non-test code, keyed by the "goroutine N" header (stable for a
// goroutine's lifetime). The goroutine running the scan is excluded via its
// testutil frames.
func moduleGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	out := map[string]string{}
	for _, stanza := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(stanza, "aggify/internal/") && !strings.Contains(stanza, "\naggify.") {
			continue
		}
		if strings.Contains(stanza, "aggify/internal/testutil.") {
			continue
		}
		header, _, ok := strings.Cut(stanza, " [")
		if !ok {
			continue
		}
		out[header] = stanza
	}
	return out
}
