package lint

import (
	"strings"
	"testing"
)

// The kind-coverage fixtures use a miniature vocabulary package plus a
// consumer that imports the real internal/obs where cross-package typing
// is needed; the real-module test below is the rule's actual target.

// fixtureObsSpec points the rule at the fixture vocabulary package.
func fixtureObsSpec() ObsSpec {
	return ObsSpec{
		PkgSuffix: "fixture/obsfix", KindType: "Kind",
		EventType: "Event", KindField: "Kind",
		RecorderType: "Recorder", EmitFunc: "Emit",
	}
}

const obsFixtureVocab = `
package obsfix

type Kind uint8

const (
	KAlpha Kind = 1 + iota
	KBeta
)

type Event struct {
	Kind   Kind
	Detail string
}

type Recorder struct{}

func (r *Recorder) Emit(e Event) {}
`

func TestObsexhaustFlagsUnemittedKinds(t *testing.T) {
	// Only the vocabulary package is loaded: no emitter exists anywhere,
	// so both kinds are findings, each positioned at its declaration.
	pkg, err := getLoader(t).CheckSource("repro/fixture/obsfix", map[string]string{"obsfix.go": obsFixtureVocab})
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	got := CheckObsExhaust([]*Package{pkg}, fixtureObsSpec(), nil)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2:\n%v", len(got), got)
	}
	for i, want := range []string{"KAlpha", "KBeta"} {
		if !strings.Contains(got[i].Msg, want) {
			t.Errorf("finding %d: %q does not mention %s", i, got[i].Msg, want)
		}
		if got[i].Pos.Filename != "obsfix.go" || got[i].Pos.Line <= 0 {
			t.Errorf("finding %d lacks a declaration position: %v", i, got[i])
		}
	}
}

func TestObsexhaustEmitterInVocabPackageDoesNotCount(t *testing.T) {
	// An emission site inside the vocabulary package itself (a test
	// helper, an example) must not satisfy the rule: the contract is that
	// the instrumented packages emit.
	src := obsFixtureVocab + `
func selfEmit(r *Recorder) {
	r.Emit(Event{Kind: KAlpha})
	r.Emit(Event{Kind: KBeta})
}
`
	pkg, err := getLoader(t).CheckSource("repro/fixture/obsfix", map[string]string{"obsfix.go": src})
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	got := CheckObsExhaust([]*Package{pkg}, fixtureObsSpec(), nil)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2 (self-emission must not count):\n%v", len(got), got)
	}
}

func TestObsexhaustSetterMustEmit(t *testing.T) {
	// A funnel-conforming setter that never emits: the fixture imports the
	// real internal/obs so the Emit detection crosses packages the same
	// way it does for internal/core.
	quiet := `
package core

import (
	"fmt"

	"repro/internal/obs"
)

type LockState uint8

const (
	Unlocked LockState = iota
	LockPending
	Locked
)

type Session struct {
	Lock LockState
	rec  *obs.Recorder
}

func lockStep(from, to LockState) bool {
	switch from {
	case Unlocked:
		return to == LockPending
	case LockPending:
		return to == Locked || to == Unlocked
	case Locked:
		return to == Unlocked
	}
	return false
}

func (s *Session) setLock(to LockState) {
	if to != s.Lock && !lockStep(s.Lock, to) {
		panic(fmt.Sprintf("invalid lock transition %d -> %d", s.Lock, to))
	}
	s.Lock = to
}
`
	pkg, err := getLoader(t).CheckSource("repro/fixture/core", map[string]string{"fsmfix.go": quiet})
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	got := CheckObsExhaust([]*Package{pkg}, DefaultObsSpec(), []FSMSpec{fixtureLockSpec()})
	if len(got) != 1 {
		t.Fatalf("got %d findings, want 1:\n%v", len(got), got)
	}
	if !strings.Contains(got[0].Msg, "setLock") || !strings.Contains(got[0].Msg, "without calling Recorder.Emit") {
		t.Errorf("finding does not name the quiet setter: %v", got[0])
	}
	if got[0].Pos.Filename != "fsmfix.go" || got[0].Pos.Line <= 0 {
		t.Errorf("finding lacks a usable fixture position: %v", got[0])
	}

	// Adding the emission inside the funnel clears the finding.
	loud := mutate(t, quiet,
		"	s.Lock = to",
		`	if to != s.Lock {
		s.rec.Emit(obs.Event{Kind: obs.KLock, Detail: "transition"})
	}
	s.Lock = to`)
	pkg, err = getLoader(t).CheckSource("repro/fixture/core", map[string]string{"fsmfix.go": loud})
	if err != nil {
		t.Fatalf("loud fixture does not type-check: %v", err)
	}
	if got := CheckObsExhaust([]*Package{pkg}, DefaultObsSpec(), []FSMSpec{fixtureLockSpec()}); len(got) != 0 {
		t.Fatalf("emitting setter still flagged:\n%v", got)
	}
}

// TestObsexhaustCtrlFunnel proves the clock-funnel check fires on a raw
// KCtrl emission and stays quiet when the literal is built inside a
// blessed funnel call (or visibly stamps the clock itself). The fixture
// imports the real internal/obs, so constant resolution crosses packages
// exactly as it does for internal/core.
func TestObsexhaustCtrlFunnel(t *testing.T) {
	bad := `
package emit

import "repro/internal/obs"

func sendCtrl(r *obs.Recorder) {
	r.Emit(obs.Event{Kind: obs.KCtrl, Detail: "requestLock", Dir: "send"})
}
`
	pkg, err := getLoader(t).CheckSource("repro/fixture/emit", map[string]string{"emit.go": bad})
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	got := CheckObsExhaust([]*Package{pkg}, DefaultObsSpec(), nil)
	if len(got) != 1 {
		t.Fatalf("got %d findings, want 1:\n%v", len(got), got)
	}
	if !strings.Contains(got[0].Msg, "KCtrl") || !strings.Contains(got[0].Msg, "EmitCtrlSend") {
		t.Errorf("finding does not name the funnel contract: %v", got[0])
	}
	if got[0].Pos.Filename != "emit.go" || got[0].Pos.Line <= 0 {
		t.Errorf("finding lacks a usable position: %v", got[0])
	}

	// Non-ctrl kinds through plain Emit stay legal.
	otherKind := mutate(t, bad, "obs.KCtrl", "obs.KLock")
	pkg, err = getLoader(t).CheckSource("repro/fixture/emit", map[string]string{"emit.go": otherKind})
	if err != nil {
		t.Fatalf("non-ctrl fixture does not type-check: %v", err)
	}
	if got := CheckObsExhaust([]*Package{pkg}, DefaultObsSpec(), nil); len(got) != 0 {
		t.Fatalf("non-ctrl emission flagged:\n%v", got)
	}

	// The funnels bless their literal arguments.
	good := `
package emit

import "repro/internal/obs"

func sendCtrl(r *obs.Recorder) uint64 {
	lc := r.EmitCtrlSend(obs.Event{Kind: obs.KCtrl, Detail: "requestLock", Dir: "send"})
	r.EmitCtrlRecv(obs.Event{Kind: obs.KCtrl, Detail: "requestLock", Dir: "recv"}, lc)
	return lc
}
`
	pkg, err = getLoader(t).CheckSource("repro/fixture/emit", map[string]string{"emit.go": good})
	if err != nil {
		t.Fatalf("good fixture does not type-check: %v", err)
	}
	if got := CheckObsExhaust([]*Package{pkg}, DefaultObsSpec(), nil); len(got) != 0 {
		t.Fatalf("funneled emissions flagged:\n%v", got)
	}

	// An explicit LC field is the visible claim of the stamping duty.
	stamped := mutate(t, bad,
		`obs.Event{Kind: obs.KCtrl, Detail: "requestLock", Dir: "send"}`,
		`obs.Event{Kind: obs.KCtrl, LC: 7, Detail: "requestLock", Dir: "send"}`)
	pkg, err = getLoader(t).CheckSource("repro/fixture/emit", map[string]string{"emit.go": stamped})
	if err != nil {
		t.Fatalf("stamped fixture does not type-check: %v", err)
	}
	if got := CheckObsExhaust([]*Package{pkg}, DefaultObsSpec(), nil); len(got) != 0 {
		t.Fatalf("explicitly stamped emission flagged:\n%v", got)
	}
}

// TestObsexhaustRealModule runs the rule over the actual module: every
// declared obs.Kind has an emitter and both core setters emit. This is the
// live contract, not a fixture — a failure here means the vocabulary and
// the instrumentation drifted.
func TestObsexhaustRealModule(t *testing.T) {
	pkgs, err := getLoader(t).LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if got := runObsexhaust(pkgs, nil); len(got) != 0 {
		t.Fatalf("obsexhaust findings on the real module:\n%v", got)
	}
}
