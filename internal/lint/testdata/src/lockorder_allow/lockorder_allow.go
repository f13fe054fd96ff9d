// Allow-mechanics fixture for the lockorder analyzer, loaded under rel
// "internal/server" (in scope): the justified suppression stays silent
// and a stale directive is itself reported.
package fixture

import "sync"

var (
	mu sync.Mutex
	ch = make(chan int)
)

func allowedSend(v int) {
	mu.Lock()
	defer mu.Unlock()
	//lint:allow lockorder fixture: bounded by the test harness, never parks
	ch <- v
}

func allowedSameLine(v int) {
	mu.Lock()
	defer mu.Unlock()
	ch <- v //lint:allow lockorder same-line directives also suppress
}

//lint:allow lockorder this directive suppresses nothing and must be flagged // want `suppresses nothing; delete it`
func noFinding() {
	mu.Lock()
	mu.Unlock()
}
