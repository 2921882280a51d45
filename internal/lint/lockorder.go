package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockorderAnalyzer builds the module-wide lock-acquisition graph and
// rejects cycles. A node is a lock *class* — a mutex-typed struct field
// (pkg.Type.field), package-level variable (pkg.var), or function-local
// (fnKey#name; see varClass) — so two goroutines locking different
// Session instances still count as the same class. An edge A→B is
// recorded whenever B is acquired at a point where A may be held, either
// directly or because a call made with A held transitively acquires B
// somewhere down the (static) call graph. Any cycle in that
// graph is an interleaving away from deadlock, which in this codebase
// means a reconfiguration that never completes and a session locked
// forever (the model checker's P2/P4 both assume lock handoffs terminate).
//
// The held-set is a may-analysis on the CFG (union at joins), so a lock
// released on only one path is still "held" afterward — conservative in
// the direction that finds cycles. Calls through function values and
// interfaces are not followed; a deliberate hand-over-hand order within
// one class needs an ignore directive with the justification written out.
var LockorderAnalyzer = &Analyzer{
	Name:      "lockorder",
	Doc:       "lock classes must be acquired in one global order: no cycles in the module-wide acquisition graph",
	RunModule: runLockorder,
}

// lockClassOf classifies a call as acquire/release of a lock class. The
// receiver expression must be of type sync.Mutex or sync.RWMutex; RLock
// and Lock map to the same class (an RLock-vs-Lock cycle still deadlocks).
// The class is the receiver's varClass; fnKey names the enclosing function.
func lockClassOf(pkg *Package, fnKey string, call *ast.CallExpr) (class string, acquire, release bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return "", false, false
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false, false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); !ok || !namedIs(n, "sync", "Mutex") && !namedIs(n, "sync", "RWMutex") {
		return "", false, false
	}
	if class = varClass(pkg, fnKey, sel.X); class == "" {
		return "", false, false
	}
	return class, acquire, release
}

// heldLattice tracks the lock classes that may be held through the body
// of the function fnKey names.
type heldLattice struct {
	mayLattice
	pkg   *Package
	fnKey string
}

func (l *heldLattice) Entry() nameSet { return nil }

func (l *heldLattice) Transfer(n ast.Node, f nameSet) nameSet { return l.step(n, f, nil) }

// step threads the held set f through n in source order and returns the
// set after n. Function literals (their bodies are analyzed separately)
// and deferred calls (a deferred unlock runs at return, not where it is
// written, and treating it as immediate would hide edges) are skipped.
// visit, when non-nil, sees every other node with the set held just
// before it; a lock call is seen with its class and whether it acquires,
// and its operands are not descended into.
func (l *heldLattice) step(n ast.Node, f nameSet, visit func(m ast.Node, held nameSet, class string, acquire bool)) nameSet {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case nil, *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if class, acq, rel := lockClassOf(l.pkg, l.fnKey, m); acq || rel {
				if visit != nil {
					visit(m, f, class, acq)
				}
				if acq {
					f = f.with(class)
				} else {
					f = f.without(class)
				}
				return false
			}
		}
		if visit != nil {
			visit(m, f, "", false)
		}
		return true
	})
	return f
}

// walkHeld runs the may-held analysis over one function and replays it,
// calling visit as step describes for every node of every reachable
// block.
func walkHeld(n *CGNode, visit func(m ast.Node, held nameSet, class string, acquire bool)) {
	lat := &heldLattice{pkg: n.Pkg, fnKey: n.Key}
	ForwardVisit[nameSet](BuildCFG(n.Decl.Body), lat, func(m ast.Node, before nameSet) {
		lat.step(m, before, visit)
	})
}

// lockScan is the per-function summary feeding the module fixpoint.
type lockScan struct {
	// acquires are direct acquisitions with the may-held set before them.
	acquires []lockAcq
	// calls are static calls to module functions with the may-held set at
	// the call site; the callee's transitive acquires become edges.
	calls []lockCall
}

type lockCall struct {
	held   []string
	callee string
	pos    token.Position
}

type lockAcq struct {
	held []string
	key  string
	pos  token.Position
}

func runLockorder(pkgs []*Package, cg *CallGraph) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	mod := pkgs[0].ModulePath

	// Pass 1: scan every function body into a summary.
	scans := map[string]*lockScan{}
	for _, n := range cg.funcs {
		if sc := scanLockFunc(n, mod); sc != nil {
			scans[n.Key] = sc
		}
	}

	// Pass 2: transitive acquire sets, closed over the static calls.
	trans := make(map[string]nameSet, len(scans))
	callees := map[string][]string{}
	for key, sc := range scans {
		trans[key] = nameSet{}
		for _, a := range sc.acquires {
			trans[key][a.key] = true
		}
		for _, c := range sc.calls {
			callees[key] = append(callees[key], c.callee)
		}
	}
	closeSets(trans, callees)

	// Pass 3: edges. held × direct-acquire and held × callee-transitive.
	type lockEdge struct{ from, to string }
	edges := map[lockEdge]token.Position{}
	addEdge := func(from, to string, pos token.Position) {
		e := lockEdge{from, to}
		if old, ok := edges[e]; !ok || posLess(pos, old) {
			edges[e] = pos
		}
	}
	for _, sc := range scans {
		for _, a := range sc.acquires {
			for _, h := range a.held {
				addEdge(h, a.key, a.pos)
			}
		}
		for _, c := range sc.calls {
			for _, h := range c.held {
				for k := range trans[c.callee] {
					addEdge(h, k, c.pos)
				}
			}
		}
	}

	// Pass 4: cycle detection. Any cycle contains at least one edge with
	// from < to, so reporting only those finds every cycle exactly once
	// per participating ascending edge — deterministic and non-redundant.
	adj := map[string][]string{}
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}
	var keys []lockEdge
	for e := range edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	var out []Finding
	for _, e := range keys {
		if e.from == e.to {
			out = append(out, Finding{
				Rule: "lockorder",
				Pos:  edges[e],
				Msg: fmt.Sprintf("lock class %s acquired while an instance of it may already be held: self-deadlock unless instances are ordered (justify with //lint:ignore)",
					e.from),
			})
			continue
		}
		if e.from < e.to && lockReaches(adj, e.to, e.from) {
			out = append(out, Finding{
				Rule: "lockorder",
				Pos:  edges[e],
				Msg: fmt.Sprintf("lock order cycle: %s is acquired while holding %s here, but %s is also acquired (possibly through calls) while holding %s",
					e.to, e.from, e.from, e.to),
			})
		}
	}
	return out
}

// scanLockFunc summarizes one function body; nil when the body neither
// touches locks nor calls module functions (keeps the fixpoint small).
func scanLockFunc(n *CGNode, mod string) *lockScan {
	sc := &lockScan{}
	walkHeld(n, func(m ast.Node, held nameSet, class string, acquire bool) {
		if acquire {
			sc.acquires = append(sc.acquires, lockAcq{held: held.sorted(), key: class, pos: position(n.Pkg, m)})
		}
		if call, ok := m.(*ast.CallExpr); ok && class == "" {
			if fn := calleeFunc(n.Pkg, call); fn != nil && inModulePath(funcPkgPath(fn), mod) {
				sc.calls = append(sc.calls, lockCall{held: held.sorted(), callee: funcKey(fn), pos: position(n.Pkg, m)})
			}
		}
	})
	if len(sc.acquires) == 0 && len(sc.calls) == 0 {
		return nil
	}
	return sc
}

// lockReaches reports whether to is reachable from fromStart in adj.
func lockReaches(adj map[string][]string, fromStart, to string) bool {
	seen := map[string]bool{fromStart: true}
	stack := []string{fromStart}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		for _, s := range adj[n] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
