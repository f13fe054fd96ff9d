// Fixture for the lockorder analyzer, loaded under rel "internal/server"
// (in scope) and rel "internal/report" (out of scope, expecting silence).
package fixture

import (
	"io"
	"sync"
)

var (
	muA sync.Mutex
	muB sync.Mutex
	ch  = make(chan int)
)

// cycleAB and cycleBA acquire the two locks in opposite orders: each inner
// acquisition closes the cycle and is reported.
func cycleAB() {
	muA.Lock()
	muB.Lock() // want `acquiring muB while holding muA in cycleAB closes an acquisition-order cycle`
	muB.Unlock()
	muA.Unlock()
}

func cycleBA() {
	muB.Lock()
	muA.Lock() // want `acquiring muA while holding muB in cycleBA closes an acquisition-order cycle`
	muA.Unlock()
	muB.Unlock()
}

// sendUnderLock blocks on a channel while holding muA; a deferred unlock
// keeps the lock held to function end.
func sendUnderLock(v int) {
	muA.Lock()
	defer muA.Unlock()
	ch <- v // want `channel send while holding muA in sendUnderLock`
}

// recvAfterUnlock releases the lock before blocking: no finding.
func recvAfterUnlock() int {
	muA.Lock()
	muA.Unlock()
	return <-ch
}

// nonBlockingSend uses a defaulted select: never blocks, no finding.
func nonBlockingSend(v int) {
	muA.Lock()
	defer muA.Unlock()
	select {
	case ch <- v:
	default:
	}
}

// selectUnderLock has no default arm, so it parks while holding the lock.
func selectUnderLock() int {
	muA.Lock()
	defer muA.Unlock()
	select { // want `select without default while holding muA in selectUnderLock`
	case v := <-ch:
		return v
	}
}

// writeAll is a same-package stream helper: its leading io.Writer parameter
// marks calls to it as stream I/O.
func writeAll(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

// flushUnderLock performs conn I/O while holding a struct-field mutex.
type conn struct {
	mu sync.Mutex
	w  io.Writer
}

func (c *conn) flushUnderLock(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return writeAll(c.w, b) // want `writeAll \(stream I/O\) while holding conn.mu in flushUnderLock`
}

// directWriteUnderLock calls the io.Writer method itself under the lock.
func (c *conn) directWriteUnderLock(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.Write(b) // want `net/io Write while holding conn.mu in directWriteUnderLock`
}

// lockB is a helper whose acquisition propagates to callers.
func lockB() {
	muB.Lock()
	muB.Unlock()
}

// transitiveAB holds muA across a call that acquires muB: the call site is
// an acquisition edge, and cycleBA's opposite order makes it a cycle.
func transitiveAB() {
	muA.Lock()
	lockB() // want `acquiring muB while holding muA in transitiveAB closes an acquisition-order cycle`
	muA.Unlock()
}
