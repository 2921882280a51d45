package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// Observability exhaustiveness: the event vocabulary and the code that
// emits it must not drift apart.
//
// The obs.Kind enum is the contract between the instrumented packages and
// every consumer of the event log (dyscotrace, the span builder, the
// determinism hashes). Two failure modes silently break that contract:
//
//   - a Kind constant nobody emits — dashboards and span phases keyed on
//     it read as "never happened" when the truth is "never instrumented";
//   - an FSM setter that changes state without emitting — the timeline
//     inspector reconstructs reconfigurations from lock/reconfig events,
//     so a quiet setter makes the log lie about the machine it mirrors.
//
// This rule closes both: every Kind constant needs at least one
// obs.Event{Kind: …} emission site outside internal/obs (the test files
// are excluded from loading, so a test-only emitter does not count), and
// every setter named by the FSM conformance specs must contain an Emit
// call. Intentionally retired kinds should be deleted, not left declared.

// ObsSpec locates the observability vocabulary the rule checks.
type ObsSpec struct {
	// PkgSuffix locates the observability package (e.g. "internal/obs").
	PkgSuffix string
	// KindType is the event-kind enum in that package.
	KindType string
	// EventType.KindField is the typed event struct and its kind field.
	EventType string
	KindField string
	// RecorderType.EmitFunc is the emission entry point setters must call.
	RecorderType string
	EmitFunc     string
	// CtrlKind names the control-message kind constant whose event
	// literals must be built inside a call to one of CtrlEmitFuncs (the
	// clock-stamping funnels): a raw Emit(Event{Kind: KCtrl, …}) leaves
	// the wire Lamport clock unstamped, so the causal DAG cannot match
	// the send→recv edge. LCField is the clock field an emitter would
	// have to set explicitly to claim the stamping duty itself. Empty
	// CtrlKind or CtrlEmitFuncs disables the check.
	CtrlKind      string
	CtrlEmitFuncs []string
	LCField       string
}

// DefaultObsSpec describes internal/obs.
func DefaultObsSpec() ObsSpec {
	return ObsSpec{
		PkgSuffix: "internal/obs", KindType: "Kind",
		EventType: "Event", KindField: "Kind",
		RecorderType: "Recorder", EmitFunc: "Emit",
		CtrlKind:      "KCtrl",
		CtrlEmitFuncs: []string{"EmitCtrlSend", "EmitCtrlRecv"},
		LCField:       "LC",
	}
}

// ObsexhaustAnalyzer checks the event vocabulary against its emitters.
var ObsexhaustAnalyzer = &Analyzer{
	Name:      "obsexhaust",
	Doc:       "every obs.Kind must have an emitter outside internal/obs, and FSM setters must emit their transition",
	RunModule: runObsexhaust,
}

func runObsexhaust(pkgs []*Package, _ *CallGraph) []Finding {
	return CheckObsExhaust(pkgs, DefaultObsSpec(), DefaultFSMSpecs())
}

// CheckObsExhaust runs both halves of the rule. A load that does not
// include the observability package (dyscolint ./internal/sim) skips the
// kind-coverage half rather than reporting every kind missing; the setter
// half still runs for whichever FSM packages are loaded.
func CheckObsExhaust(pkgs []*Package, spec ObsSpec, fsmSpecs []FSMSpec) []Finding {
	var out []Finding
	out = append(out, checkKindCoverage(pkgs, spec)...)
	out = append(out, checkSetterEmits(pkgs, spec, fsmSpecs)...)
	out = append(out, checkCtrlFunnel(pkgs, spec)...)
	return out
}

// checkKindCoverage requires every constant of the kind enum to appear as
// the kind field of an event literal in some package other than the
// observability package itself.
func checkKindCoverage(pkgs []*Package, spec ObsSpec) []Finding {
	var obsPkg *Package
	for _, p := range pkgs {
		if pathHasSuffix(p.PkgPath, spec.PkgSuffix) {
			obsPkg = p
			break
		}
	}
	if obsPkg == nil {
		return nil
	}
	tn, ok := obsPkg.Types.Scope().Lookup(spec.KindType).(*types.TypeName)
	if !ok {
		return []Finding{{Rule: "obsexhaust",
			Msg: fmt.Sprintf("%s: no kind enum %s", obsPkg.PkgPath, spec.KindType)}}
	}
	enum, consts := moduleEnum(obsPkg, tn.Type())
	if enum == nil {
		return []Finding{{Rule: "obsexhaust",
			Msg: fmt.Sprintf("%s.%s is not an enum (defined integer type with ≥2 constants)", obsPkg.PkgPath, spec.KindType)}}
	}
	covered := map[string]bool{} // exact constant value -> emitted somewhere
	for _, pkg := range pkgs {
		if pathHasSuffix(pkg.PkgPath, spec.PkgSuffix) {
			continue // the vocabulary package cannot witness its own use
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if val := eventKindValue(pkg, spec, cl); val != "" {
					covered[val] = true
				}
				return true
			})
		}
	}
	var out []Finding
	for _, c := range consts {
		if covered[c.val] {
			continue
		}
		obj := obsPkg.Types.Scope().Lookup(c.name)
		pos := obsPkg.Fset.Position(obj.Pos())
		out = append(out, Finding{
			Rule: "obsexhaust",
			Pos:  pos,
			Msg: fmt.Sprintf("event kind %s is declared but never emitted outside %s; instrument the code path that produces it or delete the kind",
				c.name, spec.PkgSuffix),
		})
	}
	return out
}

// eventKindValue returns the exact constant value of the kind field in an
// event composite literal, or "" when cl is not one (or the field is not
// constant). Both keyed and positional literals count.
func eventKindValue(pkg *Package, spec ObsSpec, cl *ast.CompositeLit) string {
	v, _ := eventLitKind(pkg, spec, cl)
	return v
}

// eventLitKind resolves an event composite literal to its constant kind
// value and the event's defining package (for looking up sibling
// constants like the control kind). Returns ("", nil) when cl is not an
// event literal with a constant kind.
func eventLitKind(pkg *Package, spec ObsSpec, cl *ast.CompositeLit) (string, *types.Package) {
	tv, ok := pkg.Info.Types[cl]
	if !ok {
		return "", nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != spec.EventType || named.Obj().Pkg() == nil ||
		!pathHasSuffix(named.Obj().Pkg().Path(), spec.PkgSuffix) {
		return "", nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", nil
	}
	kindIdx := -1
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == spec.KindField {
			kindIdx = i
			break
		}
	}
	for i, el := range cl.Elts {
		var val ast.Expr
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == spec.KindField {
				val = kv.Value
			}
		} else if i == kindIdx {
			val = el
		}
		if val == nil {
			continue
		}
		if vt, ok := pkg.Info.Types[val]; ok && vt.Value != nil {
			return vt.Value.ExactString(), named.Obj().Pkg()
		}
	}
	return "", nil
}

// checkSetterEmits requires each FSM setter to contain at least one call
// to the recorder's emit function: state changes and their events are
// produced by the same funnel or the log cannot be trusted.
func checkSetterEmits(pkgs []*Package, spec ObsSpec, fsmSpecs []FSMSpec) []Finding {
	var out []Finding
	for _, fs := range fsmSpecs {
		var pkg *Package
		for _, p := range pkgs {
			if pathHasSuffix(p.PkgPath, fs.PkgSuffix) {
				pkg = p
				break
			}
		}
		if pkg == nil {
			continue // scoped run
		}
		setter := findSetterDecl(pkg, fs)
		if setter == nil {
			continue // fsmconform reports the missing funnel
		}
		if setterCallsEmit(pkg, spec, setter.Body) {
			continue
		}
		out = append(out, Finding{
			Rule: "obsexhaust",
			Pos:  position(pkg, setter.Name),
			Msg: fmt.Sprintf("machine %q: %s changes %s.%s without calling %s.%s; a transition the event log cannot see makes every timeline derived from it wrong — emit inside the funnel",
				fs.Machine, fs.SetFunc, fs.StructType, fs.Field, spec.RecorderType, spec.EmitFunc),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Msg < out[j].Msg })
	return out
}

// findSetterDecl locates the spec's setter method declaration.
func findSetterDecl(pkg *Package, fs FSMSpec) *ast.FuncDecl {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != fs.SetFunc || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if r := recvNamed(obj); r != nil && r.Obj().Name() == fs.StructType {
				return fd
			}
		}
	}
	return nil
}

// checkCtrlFunnel requires every control-message event literal (Kind ==
// the CtrlKind constant) in an emitter package to be built directly
// inside a call to one of the blessed clock-stamping funnels
// (CtrlEmitFuncs on the recorder type). Anywhere else — a raw
// Emit(Event{Kind: KCtrl, …}), a literal stashed in a variable first —
// the wire Lamport clock would go out unstamped (or stamped by hand,
// unverifiable), and the causal DAG could not match the send→recv edge.
// A literal that sets the clock field explicitly is exempt: the emitter
// visibly took the stamping duty itself.
func checkCtrlFunnel(pkgs []*Package, spec ObsSpec) []Finding {
	if spec.CtrlKind == "" || len(spec.CtrlEmitFuncs) == 0 {
		return nil
	}
	funnel := map[string]bool{}
	for _, f := range spec.CtrlEmitFuncs {
		funnel[f] = true
	}
	var out []Finding
	for _, pkg := range pkgs {
		if pathHasSuffix(pkg.PkgPath, spec.PkgSuffix) {
			continue // the vocabulary package owns its own funnels
		}
		for _, file := range pkg.Files {
			// First pass: literals appearing directly as arguments of a
			// blessed funnel call (value or &-of-literal).
			blessed := map[*ast.CompositeLit]bool{}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg, call)
				if fn == nil || !funnel[fn.Name()] {
					return true
				}
				r := recvNamed(fn)
				if r == nil || r.Obj().Name() != spec.RecorderType || r.Obj().Pkg() == nil ||
					!pathHasSuffix(r.Obj().Pkg().Path(), spec.PkgSuffix) {
					return true
				}
				for _, arg := range call.Args {
					if ue, ok := arg.(*ast.UnaryExpr); ok {
						arg = ue.X
					}
					if cl, ok := arg.(*ast.CompositeLit); ok {
						blessed[cl] = true
					}
				}
				return true
			})
			// Second pass: every ctrl-kind event literal must be blessed.
			ast.Inspect(file, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				kindVal, eventPkg := eventLitKind(pkg, spec, cl)
				if kindVal == "" || eventPkg == nil {
					return true
				}
				ctrlConst, ok := eventPkg.Scope().Lookup(spec.CtrlKind).(*types.Const)
				if !ok || kindVal != ctrlConst.Val().ExactString() {
					return true
				}
				if blessed[cl] || litSetsField(cl, spec.LCField) {
					return true
				}
				funnels := spec.RecorderType + "." + spec.CtrlEmitFuncs[0]
				for _, f := range spec.CtrlEmitFuncs[1:] {
					funnels += "/" + f
				}
				out = append(out, Finding{
					Rule: "obsexhaust",
					Pos:  position(pkg, cl),
					Msg: fmt.Sprintf("%s event built outside the %s funnel: the wire Lamport clock stays unstamped and the causal DAG cannot match this message's send→recv edge — construct the literal inside the funnel call",
						spec.CtrlKind, funnels),
				})
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}

// litSetsField reports whether a keyed composite literal explicitly sets
// the named field.
func litSetsField(cl *ast.CompositeLit, field string) bool {
	if field == "" {
		return false
	}
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
				return true
			}
		}
	}
	return false
}

// setterCallsEmit reports whether the body calls RecorderType.EmitFunc of
// the observability package (directly or through a function literal the
// setter defines inline).
func setterCallsEmit(pkg *Package, spec ObsSpec, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn == nil || fn.Name() != spec.EmitFunc {
			return true
		}
		r := recvNamed(fn)
		if r != nil && r.Obj().Name() == spec.RecorderType && r.Obj().Pkg() != nil &&
			pathHasSuffix(r.Obj().Pkg().Path(), spec.PkgSuffix) {
			found = true
			return false
		}
		return true
	})
	return found
}
