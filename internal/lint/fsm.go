package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Static FSM extraction and implementation↔model conformance.
//
// The protocol code in internal/core funnels every state change through
// one transition function and one setter per machine (lockStep/setLock,
// reconfigStep/setState). That discipline makes the implementation's
// transition relation a static object: evaluating the step function over
// every ordered pair of states recovers exactly the relation the runtime
// enforces. This file recovers it and checks it against the model
// checker's exported tables (model.Tables()) as a refinement, both ways:
//
//   - every transition the implementation allows must exist in the model
//     ("extra" — the code can do something the verified model never
//     explored, so the P1–P5 guarantees do not cover it);
//   - every model transition must be allowed by the implementation
//     ("missing" — the model verifies behavior the code cannot exhibit,
//     so liveness arguments built on that edge are vacuous);
//   - the state field must only ever be written by the setter, and
//     struct literals may only be born in the model's initial states;
//   - at every setter call site with a constant target, the dataflow
//     fact for the receiver's state field must prove that every possible
//     source state has that transition in the model ("mis-guarded" —
//     otherwise some reachable state would panic the runtime funnel or
//     silently take an undeclared transition).
//
// When core legitimately gains a transition the procedure is: add the
// edge to the model first (so the checker explores it and the properties
// are re-verified), then mirror it in the step function — see DESIGN §6.

// FSMSpec ties one implementation state machine to a model table.
type FSMSpec struct {
	// Machine names the model.FSMTable this implementation must refine.
	Machine string
	// PkgSuffix locates the implementation package (e.g. "internal/core").
	PkgSuffix string
	// EnumType is the state enum; its constant names must equal the
	// model's state names.
	EnumType string
	// StepFunc is the transition relation: func(from, to EnumType) bool.
	StepFunc string
	// SetFunc is the only permitted writer of the state field, a method
	// on StructType.
	SetFunc string
	// StructType.Field is the state field SetFunc guards.
	StructType string
	Field      string
}

// DefaultFSMSpecs describes the two machines of internal/core.
func DefaultFSMSpecs() []FSMSpec {
	return []FSMSpec{
		{Machine: "lock", PkgSuffix: "internal/core", EnumType: "LockState",
			StepFunc: "lockStep", SetFunc: "setLock", StructType: "Session", Field: "Lock"},
		{Machine: "reconfig", PkgSuffix: "internal/core", EnumType: "ReconfigState",
			StepFunc: "reconfigStep", SetFunc: "setState", StructType: "Reconfig", Field: "State"},
	}
}

// ExtractedEdge is one transition the implementation's step function
// allows, positioned at the return statement that allows it.
type ExtractedEdge struct {
	From, To string
	Pos      token.Position
	// Definite is false when the step function's result for this pair
	// could not be decided statically (treated as allowed, conservatively).
	Definite bool
}

// ExtractedFSM is the statically recovered transition relation of one
// implementation machine.
type ExtractedFSM struct {
	Machine string
	// States are the enum's constant names in value order.
	States []string
	// Edges are sorted by (From, To) in state-value order.
	Edges []ExtractedEdge
}

// FsmconformAnalyzer checks the core state machines against the model's
// transition tables.
var FsmconformAnalyzer = &Analyzer{
	Name:      "fsmconform",
	Doc:       "implementation state machines must refine the model's transition tables (no extra, missing, or mis-guarded transitions)",
	RunModule: runFsmconform,
}

func runFsmconform(pkgs []*Package, _ *CallGraph) []Finding {
	return CheckFSMConformance(pkgs, DefaultFSMSpecs(), model.Tables())
}

// entryLattice is an enumLattice with a fixed entry fact, used to pin the
// step function's parameters to one (from, to) pair.
type entryLattice struct {
	*enumLattice
	entry enumFact
}

func (l *entryLattice) Entry() enumFact { return l.entry }

// fsmImpl is everything located for one spec in one package.
type fsmImpl struct {
	pkg    *Package
	enum   *types.Named
	consts []enumConst // value order
	byVal  map[string]string
	step   *ast.FuncDecl
	params [2]string // from, to parameter names
}

// errFSMPkgNotLoaded marks a spec whose implementation package is not in
// the loaded set. Callers skip the spec instead of reporting: a run scoped
// to a package subset (dyscolint ./internal/sim) is not a conformance
// failure.
var errFSMPkgNotLoaded = errors.New("implementation package not loaded")

// findFSMImpl locates the spec's package, enum, and step function.
func findFSMImpl(pkgs []*Package, spec FSMSpec) (*fsmImpl, error) {
	var pkg *Package
	for _, p := range pkgs {
		if pathHasSuffix(p.PkgPath, spec.PkgSuffix) {
			pkg = p
			break
		}
	}
	if pkg == nil {
		return nil, fmt.Errorf("package %s: %w", spec.PkgSuffix, errFSMPkgNotLoaded)
	}
	obj := pkg.Types.Scope().Lookup(spec.EnumType)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, fmt.Errorf("%s: no type %s", pkg.PkgPath, spec.EnumType)
	}
	enum, consts := moduleEnum(pkg, tn.Type())
	if enum == nil {
		return nil, fmt.Errorf("%s.%s is not a state enum (defined integer type with ≥2 constants)", pkg.PkgPath, spec.EnumType)
	}
	sort.Slice(consts, func(i, j int) bool { return enumValLess(consts[i].val, consts[j].val) })
	impl := &fsmImpl{pkg: pkg, enum: enum, consts: consts, byVal: map[string]string{}}
	for _, c := range consts {
		impl.byVal[c.val] = c.name
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != spec.StepFunc || fd.Body == nil {
				continue
			}
			var names []string
			for _, field := range fd.Type.Params.List {
				tv, ok := pkg.Info.Types[field.Type]
				if !ok || !types.Identical(tv.Type, enum) {
					return nil, fmt.Errorf("%s: %s parameters must all be %s", pkg.PkgPath, spec.StepFunc, spec.EnumType)
				}
				for _, id := range field.Names {
					names = append(names, id.Name)
				}
			}
			if len(names) != 2 {
				return nil, fmt.Errorf("%s: %s must take exactly (from, to %s)", pkg.PkgPath, spec.StepFunc, spec.EnumType)
			}
			impl.step = fd
			impl.params = [2]string{names[0], names[1]}
		}
	}
	if impl.step == nil {
		return nil, fmt.Errorf("%s: no step function %s", pkg.PkgPath, spec.StepFunc)
	}
	return impl, nil
}

// enumValLess orders exact integer constant strings numerically.
func enumValLess(a, b string) bool {
	ai, aerr := strconv.ParseInt(a, 0, 64)
	bi, berr := strconv.ParseInt(b, 0, 64)
	if aerr == nil && berr == nil {
		return ai < bi
	}
	return a < b
}

// evalBoolFact evaluates a boolean expression three-valuedly under a fact
// that pins enum expressions to constant sets.
func evalBoolFact(l *enumLattice, f enumFact, e ast.Expr) triBool {
	if tv, ok := l.pkg.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
		if constant.BoolVal(tv.Value) {
			return triTrue
		}
		return triFalse
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return triNot(evalBoolFact(l, f, e.X))
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return triAnd(evalBoolFact(l, f, e.X), evalBoolFact(l, f, e.Y))
		case token.LOR:
			return triOr(evalBoolFact(l, f, e.X), evalBoolFact(l, f, e.Y))
		case token.EQL, token.NEQ:
			lv, lok := singletonVal(l, f, e.X)
			rv, rok := singletonVal(l, f, e.Y)
			if !lok || !rok {
				return triUnknown
			}
			if (lv == rv) == (e.Op == token.EQL) {
				return triTrue
			}
			return triFalse
		}
	}
	return triUnknown
}

// singletonVal resolves e to one constant value: either e is a constant
// of some enum, or the fact pins its tracked key to a single value.
func singletonVal(l *enumLattice, f enumFact, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if tv, ok := l.pkg.Info.Types[e]; ok && tv.Value != nil {
		return tv.Value.ExactString(), true
	}
	if key, _, _, ok := l.enumExprKey(e); ok {
		if en, known := lookup(f, key); known && len(en.vals) == 1 {
			for v := range en.vals {
				return v, true
			}
		}
	}
	return "", false
}

// stepAllows abstractly evaluates the step function for one (from, to)
// pair: the CFG is explored with the parameters pinned, infeasible
// branches pruned, and every reachable return evaluated.
func stepAllows(impl *fsmImpl, fromVal, toVal string) (verdict triBool, at token.Position) {
	lat := &enumLattice{pkg: impl.pkg}
	entry := enumFact{
		impl.params[0]: enumEntry{enum: impl.enum, vals: constSet{fromVal: true}},
		impl.params[1]: enumEntry{enum: impl.enum, vals: constSet{toVal: true}},
	}
	g := BuildCFG(impl.step.Body)
	verdict = triFalse
	ForwardVisit[enumFact](g, &entryLattice{enumLattice: lat, entry: entry}, func(n ast.Node, before enumFact) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return
		}
		switch evalBoolFact(lat, before, ret.Results[0]) {
		case triTrue:
			if verdict != triTrue {
				at = position(impl.pkg, ret)
			}
			verdict = triTrue
		case triUnknown:
			if verdict == triFalse {
				verdict = triUnknown
				at = position(impl.pkg, ret)
			}
		case triFalse:
		}
	})
	if verdict == triFalse {
		at = position(impl.pkg, impl.step.Name)
	}
	return verdict, at
}

// ExtractFSM recovers the transition relation of one machine.
func ExtractFSM(pkgs []*Package, spec FSMSpec) (*ExtractedFSM, error) {
	impl, err := findFSMImpl(pkgs, spec)
	if err != nil {
		return nil, err
	}
	out := &ExtractedFSM{Machine: spec.Machine}
	for _, c := range impl.consts {
		out.States = append(out.States, c.name)
	}
	for _, from := range impl.consts {
		for _, to := range impl.consts {
			if from.val == to.val {
				continue // self-steps are setter no-ops, not transitions
			}
			v, at := stepAllows(impl, from.val, to.val)
			if v == triFalse {
				continue
			}
			out.Edges = append(out.Edges, ExtractedEdge{
				From: from.name, To: to.name, Pos: at, Definite: v == triTrue,
			})
		}
	}
	return out, nil
}

// ExtractFSMs recovers every machine in specs; extraction errors become
// findings at the module level rather than aborting the run.
func ExtractFSMs(pkgs []*Package, specs []FSMSpec) ([]*ExtractedFSM, []Finding) {
	var out []*ExtractedFSM
	var finds []Finding
	for _, spec := range specs {
		fsm, err := ExtractFSM(pkgs, spec)
		if errors.Is(err, errFSMPkgNotLoaded) {
			continue
		}
		if err != nil {
			finds = append(finds, Finding{
				Rule: "fsmconform",
				Msg:  fmt.Sprintf("machine %q: %v", spec.Machine, err),
			})
			continue
		}
		out = append(out, fsm)
	}
	return out, finds
}

// FormatFSMs renders extracted machines in the stable textual form used
// by the golden test and dyscolint's -fsm flag: states in value order,
// then one line per transition in (from, to) value order.
func FormatFSMs(fsms []*ExtractedFSM) string {
	var b strings.Builder
	for _, m := range fsms {
		fmt.Fprintf(&b, "machine %s\n", m.Machine)
		fmt.Fprintf(&b, "states: %s\n", strings.Join(m.States, ", "))
		for _, e := range m.Edges {
			mark := ""
			if !e.Definite {
				mark = " (may)"
			}
			fmt.Fprintf(&b, "  %s -> %s%s\n", e.From, e.To, mark)
		}
	}
	return b.String()
}

// CheckFSMConformance verifies each spec's implementation against the
// matching model table.
func CheckFSMConformance(pkgs []*Package, specs []FSMSpec, tables []model.FSMTable) []Finding {
	var out []Finding
	byMachine := map[string]*model.FSMTable{}
	for i := range tables {
		byMachine[tables[i].Machine] = &tables[i]
	}
	for _, spec := range specs {
		table, ok := byMachine[spec.Machine]
		if !ok {
			out = append(out, Finding{Rule: "fsmconform",
				Msg: fmt.Sprintf("no model table for machine %q", spec.Machine)})
			continue
		}
		impl, err := findFSMImpl(pkgs, spec)
		if errors.Is(err, errFSMPkgNotLoaded) {
			continue
		}
		if err != nil {
			out = append(out, Finding{Rule: "fsmconform",
				Msg: fmt.Sprintf("machine %q: %v", spec.Machine, err)})
			continue
		}
		out = append(out, checkStates(impl, spec, table)...)
		out = append(out, checkStepRelation(impl, spec, table)...)
		out = append(out, checkFieldWrites(pkgs, impl, spec, table)...)
		out = append(out, checkSetterGuards(pkgs, impl, spec, table)...)
	}
	return out
}

// checkStates requires the enum's constant names and the model's state
// names to be the same set.
func checkStates(impl *fsmImpl, spec FSMSpec, table *model.FSMTable) []Finding {
	var out []Finding
	modelStates := map[string]bool{}
	for _, s := range table.States {
		modelStates[s] = true
	}
	implStates := map[string]bool{}
	for _, c := range impl.consts {
		implStates[c.name] = true
		if !modelStates[c.name] {
			out = append(out, Finding{
				Rule: "fsmconform",
				Pos:  position(impl.pkg, impl.step.Name),
				Msg: fmt.Sprintf("machine %q: state %s exists in %s but not in the model table",
					spec.Machine, c.name, spec.EnumType),
			})
		}
	}
	for _, s := range table.States {
		if !implStates[s] {
			out = append(out, Finding{
				Rule: "fsmconform",
				Pos:  position(impl.pkg, impl.step.Name),
				Msg: fmt.Sprintf("machine %q: model state %s has no %s constant",
					spec.Machine, s, spec.EnumType),
			})
		}
	}
	return out
}

// checkStepRelation compares the step function's allowed pairs with the
// model's edges, both directions.
func checkStepRelation(impl *fsmImpl, spec FSMSpec, table *model.FSMTable) []Finding {
	var out []Finding
	allowed := map[[2]string]bool{}
	for _, from := range impl.consts {
		for _, to := range impl.consts {
			if from.val == to.val {
				continue
			}
			v, at := stepAllows(impl, from.val, to.val)
			if v == triFalse {
				continue
			}
			allowed[[2]string{from.name, to.name}] = true
			if !table.HasEdge(from.name, to.name) {
				how := "allows"
				if v == triUnknown {
					how = "may allow"
				}
				out = append(out, Finding{
					Rule: "fsmconform",
					Pos:  at,
					Msg: fmt.Sprintf("machine %q: %s %s transition %s -> %s, which the model does not declare; extend the model first (DESIGN §6), then mirror it here",
						spec.Machine, spec.StepFunc, how, from.name, to.name),
				})
			}
		}
	}
	for _, e := range table.Edges {
		if !allowed[[2]string{e.From, e.To}] {
			out = append(out, Finding{
				Rule: "fsmconform",
				Pos:  position(impl.pkg, impl.step.Name),
				Msg: fmt.Sprintf("machine %q: model declares %s -> %s (%s) but %s rejects it — the implementation cannot exhibit a verified behavior",
					spec.Machine, e.From, e.To, e.Label, spec.StepFunc),
			})
		}
	}
	return out
}

// fieldObjMatches reports whether sel selects spec's state field on the
// spec's struct type (matching by names plus package suffix, so the same
// check works on the real package and on test fixtures).
func fieldObjMatches(pkg *Package, sel *ast.SelectorExpr, spec FSMSpec) bool {
	if sel.Sel.Name != spec.Field {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	return ok && n.Obj().Name() == spec.StructType && n.Obj().Pkg() != nil &&
		pathHasSuffix(n.Obj().Pkg().Path(), spec.PkgSuffix)
}

// checkFieldWrites enforces the funnel: only SetFunc assigns the state
// field, and composite literals are born in model-initial states only.
func checkFieldWrites(pkgs []*Package, impl *fsmImpl, spec FSMSpec, table *model.FSMTable) []Finding {
	var out []Finding
	initial := map[string]bool{}
	for _, s := range table.Initials {
		initial[s] = true
	}
	zeroName := impl.byVal["0"]
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				inSetter := fd.Name.Name == spec.SetFunc && fd.Recv != nil &&
					pathHasSuffix(pkg.PkgPath, spec.PkgSuffix)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
							if ok && fieldObjMatches(pkg, sel, spec) && !inSetter {
								out = append(out, Finding{
									Rule: "fsmconform",
									Pos:  position(pkg, lhs),
									Msg: fmt.Sprintf("machine %q: raw write to %s.%s outside %s bypasses the transition funnel; call %s so the step relation is enforced",
										spec.Machine, spec.StructType, spec.Field, spec.SetFunc, spec.SetFunc),
								})
							}
						}
					case *ast.IncDecStmt:
						sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr)
						if ok && fieldObjMatches(pkg, sel, spec) {
							out = append(out, Finding{
								Rule: "fsmconform",
								Pos:  position(pkg, n),
								Msg: fmt.Sprintf("machine %q: %s.%s incremented directly; states are not ordered — use %s",
									spec.Machine, spec.StructType, spec.Field, spec.SetFunc),
							})
						}
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr)
							if ok && fieldObjMatches(pkg, sel, spec) {
								out = append(out, Finding{
									Rule: "fsmconform",
									Pos:  position(pkg, n),
									Msg: fmt.Sprintf("machine %q: address of %s.%s escapes the transition funnel",
										spec.Machine, spec.StructType, spec.Field),
								})
							}
						}
					case *ast.CompositeLit:
						t, ok := pkg.Info.Types[n]
						if !ok {
							return true
						}
						typ := t.Type
						if p, ok := typ.(*types.Pointer); ok {
							typ = p.Elem()
						}
						named, ok := typ.(*types.Named)
						if !ok || named.Obj().Name() != spec.StructType || named.Obj().Pkg() == nil ||
							!pathHasSuffix(named.Obj().Pkg().Path(), spec.PkgSuffix) {
							return true
						}
						birth := zeroName
						var birthNode ast.Node = n
						for _, el := range n.Elts {
							kv, ok := el.(*ast.KeyValueExpr)
							if !ok {
								continue
							}
							if id, ok := kv.Key.(*ast.Ident); ok && id.Name == spec.Field {
								birthNode = kv.Value
								tv, ok := pkg.Info.Types[kv.Value]
								if !ok || tv.Value == nil {
									birth = ""
								} else {
									birth = impl.byVal[tv.Value.ExactString()]
								}
							}
						}
						if birth == "" {
							out = append(out, Finding{
								Rule: "fsmconform",
								Pos:  position(pkg, birthNode),
								Msg: fmt.Sprintf("machine %q: %s literal initializes %s to a non-constant value; births must be in a model-initial state (%v)",
									spec.Machine, spec.StructType, spec.Field, table.Initials),
							})
						} else if !initial[birth] {
							out = append(out, Finding{
								Rule: "fsmconform",
								Pos:  position(pkg, birthNode),
								Msg: fmt.Sprintf("machine %q: %s literal born in state %s, which is not a model-initial state (%v)",
									spec.Machine, spec.StructType, birth, table.Initials),
							})
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// checkSetterGuards runs the enum dataflow over every function and, at
// each SetFunc call with a constant target, requires the possible source
// states (per the fact for the receiver's state field) to all have the
// transition in the model.
func checkSetterGuards(pkgs []*Package, impl *fsmImpl, spec FSMSpec, table *model.FSMTable) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		lat := &enumLattice{pkg: pkg}
		for _, file := range pkg.Files {
			funcBodies(file, func(fname string, body *ast.BlockStmt) {
				// The setter's own body performs the raw write under the
				// step-function check; its guard is dynamic by design.
				if fname == spec.SetFunc {
					return
				}
				// Collect this body's setter calls first; skip the CFG
				// pass entirely when there are none.
				hasCall := false
				ast.Inspect(body, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok && n != body {
						return true
					}
					if call, ok := n.(*ast.CallExpr); ok {
						if fn := calleeFunc(pkg, call); fn != nil && fn.Name() == spec.SetFunc {
							if r := recvNamed(fn); r != nil && r.Obj().Name() == spec.StructType {
								hasCall = true
							}
						}
					}
					return !hasCall
				})
				if !hasCall {
					return
				}
				g := BuildCFG(body)
				ForwardVisit[enumFact](g, lat, func(n ast.Node, before enumFact) {
					ast.Inspect(n, func(m ast.Node) bool {
						if _, ok := m.(*ast.FuncLit); ok {
							return false
						}
						call, ok := m.(*ast.CallExpr)
						if !ok {
							return true
						}
						fn := calleeFunc(pkg, call)
						if fn == nil || fn.Name() != spec.SetFunc {
							return true
						}
						if r := recvNamed(fn); r == nil || r.Obj().Name() != spec.StructType ||
							!pathHasSuffix(funcPkgPath(fn), spec.PkgSuffix) {
							return true
						}
						out = append(out, checkOneSetterCall(pkg, lat, impl, spec, table, call, before)...)
						return true
					})
				})
			})
		}
	}
	return out
}

// checkOneSetterCall verifies a single transition call site.
func checkOneSetterCall(pkg *Package, lat *enumLattice, impl *fsmImpl, spec FSMSpec, table *model.FSMTable, call *ast.CallExpr, fact enumFact) []Finding {
	if len(call.Args) != 1 {
		return nil
	}
	toVal, ok := lat.constValOf(call.Args[0], impl.enum)
	if !ok {
		return []Finding{{
			Rule: "fsmconform",
			Pos:  position(pkg, call),
			Msg: fmt.Sprintf("machine %q: %s called with a non-constant target; transitions must name their destination state so they can be checked against the model",
				spec.Machine, spec.SetFunc),
		}}
	}
	toName := impl.byVal[toVal]
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	// Possible source states: the dataflow fact for <recv>.<Field>, ⊤
	// (every state) when nothing narrowed it.
	possible := allVals(impl.consts)
	if isStableExpr(sel.X) {
		key := types.ExprString(ast.Unparen(sel.X)) + "." + spec.Field
		if en, known := lookup(fact, key); known {
			possible = en.vals
		}
	}
	var bad []string
	for val := range possible {
		fromName := impl.byVal[val]
		if val == toVal || fromName == "" {
			continue // self-step: setter no-op, not a transition
		}
		if !table.HasEdge(fromName, toName) {
			bad = append(bad, fromName)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return []Finding{{
		Rule: "fsmconform",
		Pos:  position(pkg, call),
		Msg: fmt.Sprintf("machine %q: %s(%s) is reachable while %s may be %v; the model has no such transition — strengthen the guard so only legal source states reach this call",
			spec.Machine, spec.SetFunc, toName, spec.Field, bad),
	}}
}
