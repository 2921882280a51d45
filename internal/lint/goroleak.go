package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// GoroleakAnalyzer finds `go` statements whose goroutine can block
// forever on a channel that has no reachable counterpart: a receive (or
// range) with no sender and no close anywhere outside the goroutine, or
// an unbuffered send with no receiver. Such a goroutine is pinned for
// the life of the process — in this codebase that is a retry loop or
// drain that outlives its session (the PR 4 oldPathFIN family), leaking
// its stack and everything it captured.
//
// Channels are classified like lockorder's lock classes (varClass): a
// struct field (pkg.Type.field), a package variable (pkg.var), or a
// function-local (funcKey#name). A channel passed as an argument is
// tracked one constraint deep: every call site's argument class flows
// into the callee's parameter, to fixpoint (closeSets), so
// `go consumer(ch)` pairs with `producer(ch)` through parameters.
// Operations whose channel cannot be classified are skipped — the rule
// under-approximates rather than guess. Ops in a select with a default
// never block; a select without default is flagged only when none of its
// cases has a counterpart.
var GoroleakAnalyzer = &Analyzer{
	Name:      "goroleak",
	Doc:       "a spawned goroutine must not be able to block forever on a channel nobody else touches",
	RunModule: runGoroleak,
}

type chanOpKind uint8

const (
	opSend chanOpKind = iota
	opRecv
	opClose
	opRange
)

func (k chanOpKind) String() string {
	switch k {
	case opSend:
		return "send"
	case opRecv:
		return "receive"
	case opClose:
		return "close"
	case opRange:
		return "range"
	}
	return "?"
}

// chanOp is one channel operation site.
type chanOp struct {
	class      string // possibly "param:<funcKey>@<i>" before expansion
	kind       chanOpKind
	pos        token.Position
	sel        *ast.SelectStmt // enclosing select clause head, if any
	selDefault bool            // that select has a default (non-blocking)
}

// chanScope classifies the channel expressions of one declared function
// (and of the literals inside it).
type chanScope struct {
	pkg    *Package
	key    string
	params map[types.Object]int // channel-typed params -> index
}

func paramClass(fnKey string, i int) string { return fmt.Sprintf("param:%s@%d", fnKey, i) }

func runGoroleak(pkgs []*Package, cg *CallGraph) []Finding {
	if len(pkgs) == 0 {
		return nil
	}

	// Pass 1: the channel-typed parameters of every function.
	params := map[string]map[types.Object]int{}
	for _, n := range cg.funcs {
		ps := n.sig().Params()
		for i := 0; i < ps.Len(); i++ {
			if _, isChan := ps.At(i).Type().Underlying().(*types.Chan); isChan {
				if params[n.Key] == nil {
					params[n.Key] = map[types.Object]int{}
				}
				params[n.Key][ps.At(i)] = i
			}
		}
	}
	scopeOf := func(n *CGNode) chanScope { return chanScope{pkg: n.Pkg, key: n.Key, params: params[n.Key]} }

	// Pass 2: module-wide op pool, buffered-make classes, parameter-flow
	// constraints (a concrete class flowing into a parameter joins its
	// classes, a parameter flowing into one joins its deps), and go sites.
	var pool []chanOp
	buffered := map[string]bool{}
	classes, deps := map[string]nameSet{}, map[string][]string{}
	addFlow := func(dst, src string) {
		if src == "" {
			return
		}
		if classes[dst] == nil {
			classes[dst] = nameSet{}
		}
		if strings.HasPrefix(src, "param:") {
			deps[dst] = append(deps[dst], src)
		} else {
			classes[dst][src] = true
		}
	}
	type goSite struct {
		owner chanScope
		stmt  *ast.GoStmt
	}
	var goSites []goSite
	for _, node := range cg.funcs {
		sc := scopeOf(node)
		walkChanOps(sc, node.Decl.Body, false, func(op chanOp) { pool = append(pool, op) })
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				goSites = append(goSites, goSite{owner: sc, stmt: n})
			case *ast.CallExpr:
				// Argument i of a call flows into the callee's param i.
				if fn := calleeFunc(sc.pkg, n); fn != nil {
					for _, idx := range params[funcKey(fn)] {
						if idx < len(n.Args) {
							addFlow(paramClass(funcKey(fn), idx), sc.classOf(n.Args[idx]))
						}
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && isBufferedMake(sc.pkg, rhs) {
						if cls := sc.classOf(n.Lhs[i]); cls != "" {
							buffered[cls] = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) && isBufferedMake(sc.pkg, v) {
						if cls := sc.classOf(n.Names[i]); cls != "" {
							buffered[cls] = true
						}
					}
				}
			}
			return true
		})
	}

	// Pass 3: parameter-flow fixpoint, then expand param classes.
	closeSets(classes, deps)
	expand := func(cls string) []string {
		if !strings.HasPrefix(cls, "param:") {
			if cls == "" {
				return nil
			}
			return []string{cls}
		}
		return classes[cls].sorted()
	}
	var expandedPool []chanOp
	for _, op := range pool {
		for _, cls := range expand(op.class) {
			e := op
			e.class = cls
			expandedPool = append(expandedPool, e)
		}
	}
	var bufClasses []string
	for cls := range buffered {
		bufClasses = append(bufClasses, cls)
	}
	for _, cls := range bufClasses {
		for _, c := range expand(cls) {
			buffered[c] = true
		}
	}

	// Pass 4: judge each go site.
	var out []Finding
	for _, site := range goSites {
		out = append(out, judgeGoSite(site.owner, site.stmt, cg, scopeOf, expandedPool, buffered, expand)...)
	}
	return out
}

// classOf classifies a channel expression; "" means unknown. Param
// channels get the pseudo-class "param:<funcKey>@<i>"; every other
// channel its varClass.
func (sc chanScope) classOf(e ast.Expr) string {
	e = ast.Unparen(e)
	var t types.Type
	if tv, ok := sc.pkg.Info.Types[e]; ok && tv.Type != nil {
		t = tv.Type
	} else if id, ok := e.(*ast.Ident); ok {
		// Defining idents (the LHS of :=) are in Defs but not Types.
		if o := sc.pkg.Info.ObjectOf(id); o != nil {
			t = o.Type()
		}
	}
	if t == nil {
		return ""
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return ""
	}
	if id, ok := e.(*ast.Ident); ok {
		if idx, ok := sc.params[sc.pkg.Info.ObjectOf(id)]; ok {
			return paramClass(sc.key, idx)
		}
	}
	return varClass(sc.pkg, sc.key, e)
}

// isBufferedMake reports whether e is make(chan T, n) with n either a
// positive constant or non-constant (assumed buffered: lenient).
func isBufferedMake(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	cv, ok := pkg.Info.Types[call.Args[1]]
	if ok && cv.Value != nil {
		if n, exact := constant.Int64Val(cv.Value); exact && n <= 0 {
			return false
		}
	}
	return true
}

// walkChanOps yields the channel ops under n with their select context.
// With direct set it yields only the ops that execute on the goroutine
// running n: nested function literals (they may run elsewhere) and nested
// go statements (separate goroutines) are skipped. Otherwise literals are
// included — a callback may run on another goroutine, so its ops count as
// counterparts.
func walkChanOps(sc chanScope, n ast.Node, direct bool, visit func(chanOp)) {
	var walk func(m ast.Node, sel *ast.SelectStmt, selDefault bool)
	emit := func(node ast.Node, e ast.Expr, kind chanOpKind, sel *ast.SelectStmt, selDefault bool) {
		visit(chanOp{class: sc.classOf(e), kind: kind, pos: position(sc.pkg, node), sel: sel, selDefault: selDefault})
	}
	walk = func(m ast.Node, sel *ast.SelectStmt, selDefault bool) {
		switch m := m.(type) {
		case nil:
			return
		case *ast.FuncLit, *ast.GoStmt:
			if direct {
				return
			}
		case *ast.SelectStmt:
			hasDef := selectHasDefault(m)
			for _, c := range m.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm != nil {
					walk(cc.Comm, m, hasDef)
				}
				for _, s := range cc.Body {
					walk(s, nil, false)
				}
			}
			return
		case *ast.SendStmt:
			emit(m, m.Chan, opSend, sel, selDefault)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				emit(m, m.X, opRecv, sel, selDefault)
			}
		case *ast.RangeStmt:
			if tv, ok := sc.pkg.Info.Types[m.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					emit(m, m.X, opRange, sel, selDefault)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
				if b, ok := sc.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(m.Args) == 1 {
					emit(m, m.Args[0], opClose, sel, selDefault)
				}
			}
		}
		for _, c := range astChildren(m) {
			walk(c, sel, selDefault)
		}
	}
	walk(n, nil, false)
}

// lineSpan is a file region used to exclude a goroutine's own ops from
// its counterpart search (positions are package-local, so compare by
// file and line, which is stable across universes).
type lineSpan struct {
	file     string
	from, to int
}

func (s lineSpan) contains(p token.Position) bool {
	return p.Filename == s.file && p.Line >= s.from && p.Line <= s.to
}

func nodeSpan(pkg *Package, n ast.Node) lineSpan {
	from := pkg.Fset.Position(n.Pos())
	to := pkg.Fset.Position(n.End())
	return lineSpan{file: from.Filename, from: from.Line, to: to.Line}
}

// judgeGoSite analyzes one `go` statement of owner.
func judgeGoSite(owner chanScope, stmt *ast.GoStmt, cg *CallGraph, scopeOf func(*CGNode) chanScope, pool []chanOp, buffered map[string]bool, expand func(string) []string) []Finding {
	goPos := position(owner.pkg, stmt)

	// Resolve the goroutine body and the op-collection context.
	var body ast.Node
	var bodyScope chanScope
	var span lineSpan
	instance := map[string]string{} // callee param class -> instance class at this go site
	if lit, ok := ast.Unparen(stmt.Call.Fun).(*ast.FuncLit); ok {
		body, bodyScope = lit.Body, owner
		span = nodeSpan(owner.pkg, lit)
	} else if fn := calleeFunc(owner.pkg, stmt.Call); fn != nil {
		callee := cg.Nodes[funcKey(fn)]
		if callee == nil {
			return nil // body not loaded: nothing to prove
		}
		body, bodyScope = callee.Decl.Body, scopeOf(callee)
		span = nodeSpan(callee.Pkg, callee.Decl)
		for _, idx := range bodyScope.params {
			if idx < len(stmt.Call.Args) {
				instance[paramClass(callee.Key, idx)] = owner.classOf(stmt.Call.Args[idx])
			}
		}
	} else {
		return nil // dynamic spawn: cannot resolve the body
	}

	// Blocking ops directly on the goroutine.
	var ops []chanOp
	walkChanOps(bodyScope, body, true, func(op chanOp) { ops = append(ops, op) })

	// classesOf resolves an op's channel to concrete candidate classes
	// (a param channel may be bound differently per call site).
	classesOf := func(op chanOp) []string {
		cls := op.class
		if c, ok := instance[cls]; ok {
			cls = c
		}
		if cls == "" {
			return nil
		}
		if strings.HasPrefix(cls, "param:") {
			return expand(cls)
		}
		return []string{cls}
	}
	hasCounterpart := func(cls string, kinds ...chanOpKind) bool {
		for _, p := range pool {
			if p.class != cls || span.contains(p.pos) {
				continue
			}
			for _, k := range kinds {
				if p.kind == k {
					return true
				}
			}
		}
		return false
	}
	// satisfied: unknown classes count as satisfied — under-approximate
	// rather than guess; any live candidate binding clears the op.
	satisfied := func(op chanOp) bool {
		classes := classesOf(op)
		if len(classes) == 0 {
			return true
		}
		for _, cls := range classes {
			switch op.kind {
			case opRecv, opRange:
				if hasCounterpart(cls, opSend, opClose) {
					return true
				}
			case opSend:
				if buffered[cls] || hasCounterpart(cls, opRecv, opRange) {
					return true
				}
			case opClose:
				return true // close never blocks
			default:
				panic(fmt.Sprintf("goroleak: unexpected channel op kind %d", op.kind))
			}
		}
		return false
	}

	var out []Finding
	judgedSel := map[*ast.SelectStmt]bool{}
	for _, op := range ops {
		if op.kind == opClose || op.selDefault {
			continue
		}
		if op.sel != nil {
			// A select blocks forever only if every case is dead.
			if judgedSel[op.sel] {
				continue
			}
			judgedSel[op.sel] = true
			dead := true
			for _, other := range ops {
				if other.sel == op.sel && satisfied(other) {
					dead = false
					break
				}
			}
			if dead {
				out = append(out, Finding{Rule: "goroleak", Pos: bodyScope.pkg.Fset.Position(op.sel.Pos()),
					Msg: fmt.Sprintf("goroutine started at %s:%d blocks forever: no case of this select has a live counterpart outside the goroutine", goPos.Filename, goPos.Line)})
			}
			continue
		}
		if !satisfied(op) {
			cls := strings.Join(classesOf(op), ", ")
			want := "sender or close"
			if op.kind == opSend {
				want = "receiver"
			}
			out = append(out, Finding{Rule: "goroleak", Pos: op.pos,
				Msg: fmt.Sprintf("goroutine started at %s:%d blocks forever: %s on channel %s has no %s outside the goroutine", goPos.Filename, goPos.Line, op.kind, cls, want)})
		}
	}
	return out
}
