package lint

import "testing"

// The lockorder fixtures live under the module path because the analyzer
// only follows calls into module functions; a fixture outside "repro/…"
// would have its call graph ignored.

func TestLockorderFlagsDirectCycle(t *testing.T) {
	got := checkFixture(t, LockorderAnalyzer, "repro/fixture/lk", "lk.go", `
package lk

import "sync"

var muA, muB sync.Mutex

func ab() {
	muA.Lock()
	muB.Lock() // edge muA -> muB
	muB.Unlock()
	muA.Unlock()
}

func ba() {
	muB.Lock()
	muA.Lock() // edge muB -> muA: cycle
	muA.Unlock()
	muB.Unlock()
}
`)
	wantFindings(t, got, "lockorder", "lock order cycle")
}

func TestLockorderFlagsTransitiveCycleThroughCalls(t *testing.T) {
	got := checkFixture(t, LockorderAnalyzer, "repro/fixture/lk", "lk.go", `
package lk

import "sync"

var muA, muB sync.Mutex

func outer() {
	muA.Lock()
	lockB() // callee acquires muB while muA is held
	muA.Unlock()
}

func lockB() {
	muB.Lock()
	muB.Unlock()
}

func other() {
	muB.Lock()
	lockA() // callee acquires muA while muB is held: cycle
	muB.Unlock()
}

func lockA() {
	muA.Lock()
	muA.Unlock()
}
`)
	wantFindings(t, got, "lockorder", "lock order cycle")
}

func TestLockorderFlagsSelfClassNesting(t *testing.T) {
	got := checkFixture(t, LockorderAnalyzer, "repro/fixture/lk", "lk.go", `
package lk

import "sync"

type node struct {
	mu sync.Mutex
}

// Both instances are the same lock class (lk.node.mu): two goroutines
// running link(a, b) and link(b, a) deadlock.
func link(a, b *node) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}
`)
	wantFindings(t, got, "lockorder", "self-deadlock")
}

func TestLockorderPassesConsistentOrder(t *testing.T) {
	got := checkFixture(t, LockorderAnalyzer, "repro/fixture/lk", "lk.go", `
package lk

import "sync"

var muA, muB sync.Mutex

func f() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func g() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}
`)
	wantFindings(t, got, "lockorder")
}

func TestLockorderPassesReleaseBeforeNextAcquire(t *testing.T) {
	got := checkFixture(t, LockorderAnalyzer, "repro/fixture/lk", "lk.go", `
package lk

import "sync"

var muA, muB sync.Mutex

// Opposite textual orders, but never held together: no edges at all.
func f() {
	muA.Lock()
	muA.Unlock()
	muB.Lock()
	muB.Unlock()
}

func g() {
	muB.Lock()
	muB.Unlock()
	muA.Lock()
	muA.Unlock()
}
`)
	wantFindings(t, got, "lockorder")
}

func TestLockorderMayAnalysisKeepsBranchReleasedLockHeld(t *testing.T) {
	got := checkFixture(t, LockorderAnalyzer, "repro/fixture/lk", "lk.go", `
package lk

import "sync"

var muA, muB sync.Mutex

// muA is released on only one branch, so it may still be held at the
// muB acquisition; combined with ba() that is a cycle.
func ab(cond bool) {
	muA.Lock()
	if cond {
		muA.Unlock()
	}
	muB.Lock()
	muB.Unlock()
}

func ba() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}
`)
	wantFindings(t, got, "lockorder", "lock order cycle")
}

func TestLockorderLocalMutexClassesAreScopedByFullFuncKey(t *testing.T) {
	got := checkFixture(t, LockorderAnalyzer, "repro/fixture/lk", "lk.go", `
package lk

import "sync"

type A struct{}
type B struct{}

// Two methods named f, each with its own local mutex: the classes are
// lk.A.f#mu and lk.B.f#mu, so nesting one under the other is no cycle.
func (A) f() {
	var mu sync.Mutex
	mu.Lock()
	B{}.f()
	mu.Unlock()
}

func (B) f() {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
}
`)
	wantFindings(t, got, "lockorder")
}
