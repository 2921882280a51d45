package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// BlockfreeAnalyzer proves the hot-path region (same region as
// allocfree) never blocks: no channel operations, no time.Sleep or
// timer waits, no lock acquisition, no sync waits, and no call that
// cannot be proven non-blocking. A data plane that parks a goroutine
// per packet is not a data plane.
//
// The rule has a second half wired to lockorder's class model: if hot
// code does acquire a lock class (justified with //lint:ignore), that
// class becomes *hot*, and the whole module is then scanned for code
// that blocks or takes further locks while a hot class may be held —
// anyone extending a hot critical section is extending per-packet
// latency, wherever they live.
var BlockfreeAnalyzer = &Analyzer{
	Name:      "blockfree",
	Doc:       "the hot-path root set must be transitively non-blocking, and nothing may block while a hot lock class is held",
	RunModule: runBlockfree,
}

func runBlockfree(pkgs []*Package, cg *CallGraph) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	// The region's malformed-coldpath findings belong to allocfree.
	region, _ := cg.region()
	mod := pkgs[0].ModulePath

	var findings []Finding
	hotLocks := map[string]bool{}
	for _, hf := range region {
		node := cg.Nodes[hf.key]
		report := func(n ast.Node, msg string) {
			findings = append(findings, hotFinding("blockfree", node.Pkg, n, hf.chain, msg))
		}
		scanBlockBody(node, cg, mod, hotLocks, report)
	}

	if len(hotLocks) > 0 {
		for _, n := range cg.funcs {
			findings = append(findings, scanHolderFunc(n, hotLocks)...)
		}
	}
	return findings
}

// scanBlockBody walks one hot function body reporting blocking
// constructs. Lock classes acquired here are recorded in hotLocks.
func scanBlockBody(node *CGNode, cg *CallGraph, mod string, hotLocks map[string]bool, report func(ast.Node, string)) {
	pkg := node.Pkg
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return // runs only if invoked; invocation sites are flagged
		case *ast.GoStmt:
			return // spawning never blocks; the spawned body is goroleak's job
		case *ast.DeferStmt:
			walk(n.Call) // runs at return, still on the hot goroutine
			return
		case *ast.SendStmt:
			report(n, "channel send may block")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n, "channel receive may block")
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(n, "range over a channel blocks until close")
				}
			}
		case *ast.SelectStmt:
			// The select blocks (or not) as a unit; its comm sends/receives
			// never block individually, so only their operand expressions
			// are scanned.
			if !selectHasDefault(n) {
				report(n, "select without default may block")
			}
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CommClause)
				walkCommOperands(cc.Comm, walk)
				for _, s := range cc.Body {
					walk(s)
				}
			}
			return
		case *ast.CallExpr:
			scanBlockCall(pkg, node.Key, n, cg, mod, hotLocks, report, walk)
			return
		}
		for _, c := range astChildren(n) {
			walk(c)
		}
	}
	walk(node.Decl.Body)
}

// scanBlockCall classifies one call expression on the hot path.
func scanBlockCall(pkg *Package, fnKey string, call *ast.CallExpr, cg *CallGraph, mod string, hotLocks map[string]bool, report func(ast.Node, string), walk func(ast.Node)) {
	walkRest := func() {
		walk(call.Fun)
		for _, a := range call.Args {
			walk(a)
		}
	}
	if isBuiltinPanic(pkg, call) {
		return
	}
	if isConversion(pkg, call) {
		for _, a := range call.Args {
			walk(a)
		}
		return
	}
	fun := unwrapIndex(ast.Unparen(call.Fun))
	if lit, ok := fun.(*ast.FuncLit); ok {
		walk(lit.Body)
		for _, a := range call.Args {
			walk(a)
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			for _, a := range call.Args {
				walk(a)
			}
			return
		}
	}
	if key, acq, rel := lockClassOf(pkg, fnKey, call); acq || rel {
		if acq {
			report(call, fmt.Sprintf("acquires lock class %s on the hot path", key))
			hotLocks[key] = true
		}
		// Releases never block and are part of the lock-class model, not
		// an unprovable out-of-module call.
		walkRest()
		return
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && types.IsInterface(s.Recv()) {
			if len(cg.IfaceTargets(pkg, call)) == 0 {
				report(call, "interface method call resolves to no loaded implementation; cannot be proven non-blocking")
			}
			walkRest()
			return
		}
	}
	if fn := calleeFunc(pkg, call); fn != nil {
		if msg := blockingStdCall(fn); msg != "" {
			report(call, msg)
		} else if path := funcPkgPath(fn); path != "" && !inModulePath(path, mod) && !nonBlockingStdPkg(path) {
			report(call, fmt.Sprintf("call into %s cannot be proven non-blocking", funcKey(fn)))
		}
		walkRest()
		return
	}
	report(call, "call through a function value cannot be proven non-blocking")
	walkRest()
}

// nonBlockingStdPkg whitelists the out-of-module packages whose
// operations are non-blocking by specification. sync/atomic is the only
// member: its operations are hardware load/store/RMW instructions with
// no lock, no park, no syscall — the primitive the dataplane's lock-free
// snapshot readers rely on being exactly as cheap as advertised.
func nonBlockingStdPkg(path string) bool { return path == "sync/atomic" }

// blockingStdCall names well-known blocking standard-library calls; ""
// for anything else.
func blockingStdCall(fn *types.Func) string {
	if funcPkgPath(fn) == "time" && fn.Name() == "Sleep" {
		return "time.Sleep parks the goroutine"
	}
	r := recvNamed(fn)
	switch {
	case namedIs(r, "sync", "WaitGroup") && fn.Name() == "Wait":
		return "sync.WaitGroup.Wait may block"
	case namedIs(r, "sync", "Cond") && fn.Name() == "Wait":
		return "sync.Cond.Wait blocks"
	case namedIs(r, "sync", "Once") && fn.Name() == "Do":
		return "sync.Once.Do may block behind the first caller"
	}
	return ""
}

// walkCommOperands visits the subexpressions of a select comm statement
// while skipping the top-level send/receive operation itself.
func walkCommOperands(comm ast.Stmt, walk func(ast.Node)) {
	skipArrow := func(e ast.Expr) {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			walk(u.X)
			return
		}
		walk(e)
	}
	switch c := comm.(type) {
	case nil:
	case *ast.SendStmt:
		walk(c.Chan)
		walk(c.Value)
	case *ast.ExprStmt:
		skipArrow(c.X)
	case *ast.AssignStmt:
		for _, l := range c.Lhs {
			walk(l)
		}
		for _, r := range c.Rhs {
			skipArrow(r)
		}
	default:
		walk(comm)
	}
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// scanHolderFunc runs the module-wide second half over one function:
// with the set of hot lock classes in hand, flag any code that acquires
// another lock or performs a blocking operation while a hot class may be
// held. The held-set is lockorder's may-analysis, so a conditional release
// keeps the class "held" — conservative toward finding latency extensions.
func scanHolderFunc(n *CGNode, hotLocks map[string]bool) []Finding {
	var out []Finding
	walkHeld(n, func(m ast.Node, held nameSet, class string, acquire bool) {
		hot := ""
		for _, k := range held.sorted() {
			if hotLocks[k] {
				hot = k
				break
			}
		}
		if hot == "" {
			return
		}
		what, suffix := "", ""
		switch m := m.(type) {
		case *ast.SendStmt:
			what, suffix = "channel send", ": extends per-packet critical section"
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				what = "channel receive"
			}
		case *ast.SelectStmt:
			if !selectHasDefault(m) {
				what = "blocking select"
			}
		case *ast.CallExpr:
			if acquire && class != hot {
				what = fmt.Sprintf("lock class %s acquired", class)
			} else if fn := calleeFunc(n.Pkg, m); fn != nil && class == "" {
				what = blockingStdCall(fn)
			}
		}
		if what != "" {
			out = append(out, Finding{Rule: "blockfree", Pos: position(n.Pkg, m),
				Msg: fmt.Sprintf("%s while hot lock class %s may be held%s", what, hot, suffix)})
		}
	})
	return out
}
