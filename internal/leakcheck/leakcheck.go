// Package leakcheck is the shared goroutine-leak checker used by the test
// suites of the packages that start goroutines (internal/server,
// internal/stream, …). It snapshots the live goroutines when a test starts
// and fails the test if any goroutine running this module's code is still
// alive at cleanup — the property every Close path in the decode service
// is held to.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// stacks snapshots every goroutine's stack, one string each, keyed by the
// goroutine ID (stable and never reused within a process).
func stacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		// The header line is "goroutine N [state]:".
		id, _, ok := strings.Cut(g, " [")
		if !ok {
			continue
		}
		out[id] = g
	}
	return out
}

// Check is the goroutine-leak checker: call it FIRST in a test so its
// cleanup runs LAST (after the test's own deferred Closes and t.Cleanup
// teardowns). It snapshots the live goroutines now and, at cleanup, polls
// until every goroutine created since — filtered to this module's code, so
// runtime and testing internals don't flake the diff — has exited.
func Check(t testing.TB) {
	t.Helper()
	before := stacks()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var leaked []string
		for {
			leaked = leaked[:0]
			for id, stack := range stacks() {
				if _, ok := before[id]; ok {
					continue
				}
				if !strings.Contains(stack, "astrea/") {
					continue // runtime, testing, net/http internals
				}
				if strings.Contains(stack, "leakcheck.") {
					continue // this cleanup itself
				}
				leaked = append(leaked, stack)
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("%d goroutines leaked:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	})
}
