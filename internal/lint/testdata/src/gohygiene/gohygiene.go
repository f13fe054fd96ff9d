// Fixture for the gohygiene analyzer, loaded under rel "internal/server"
// (in scope) and rel "internal/realtime" (out of scope, expecting silence).
package fixture

import "sync"

func untracked(f func()) {
	go f() // want `untracked goroutine: no WaitGroup.Add visible in untracked`
}

func tracked(f func()) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f()
	}()
	return &wg
}

func addAfter(f func()) {
	var wg sync.WaitGroup
	go f() // want `untracked goroutine: no WaitGroup.Add visible in addAfter`
	wg.Add(1)
	wg.Wait()
}

func nestedAdd(f func()) {
	var wg sync.WaitGroup
	helper := func() {
		wg.Add(1)
	}
	_ = helper
	go f() // want `untracked goroutine: no WaitGroup.Add visible in nestedAdd`
}
