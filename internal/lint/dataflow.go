package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// Forward-dataflow worklist engine over the CFGs of cfg.go. Clients
// implement Lattice; the engine computes the fact holding at the entry of
// every reachable block, branch-sensitively: facts are refined along
// edges using the condition/case information the CFG records, so a client
// can learn e.g. "rc.State == RcLocking" inside the true arm of a guard.

// Lattice defines one forward analysis. F is the fact type; facts must be
// treated as immutable by the engine's clients (Transfer/Refine return
// fresh values or the input unchanged).
type Lattice[F any] interface {
	// Entry is the fact at function entry.
	Entry() F
	// Transfer applies one straight-line node.
	Transfer(n ast.Node, f F) F
	// Refine applies an edge's condition. Returning ok=false marks the
	// edge infeasible under f (the successor is not reached along it).
	Refine(e Edge, f F) (F, bool)
	// Join merges facts from two predecessors.
	Join(a, b F) F
	// Equal reports convergence.
	Equal(a, b F) bool
}

// Forward computes the entry fact of every reachable block. Unreachable
// blocks are absent from the result.
func Forward[F any](g *CFG, lat Lattice[F]) map[*Block]F {
	in := make(map[*Block]F)
	in[g.Entry] = lat.Entry()
	work := []*Block{g.Entry}
	// Bound iteration defensively: a non-converging lattice is a client
	// bug, not a reason to spin forever.
	budget := (len(g.Blocks) + 1) * 256
	for len(work) > 0 && budget > 0 {
		budget--
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		f := in[blk]
		for _, n := range blk.Nodes {
			f = lat.Transfer(n, f)
		}
		for _, e := range blk.Succs {
			ef, ok := lat.Refine(e, f)
			if !ok {
				continue
			}
			old, seen := in[e.To]
			if !seen {
				in[e.To] = ef
				work = append(work, e.To)
				continue
			}
			j := lat.Join(old, ef)
			if !lat.Equal(j, old) {
				in[e.To] = j
				work = append(work, e.To)
			}
		}
	}
	return in
}

// ForwardVisit runs Forward and then replays each reachable block,
// calling visit with the fact holding immediately before each node.
func ForwardVisit[F any](g *CFG, lat Lattice[F], visit func(n ast.Node, before F)) {
	in := Forward(g, lat)
	for _, blk := range g.Blocks {
		f, ok := in[blk]
		if !ok {
			continue
		}
		for _, n := range blk.Nodes {
			visit(n, f)
			f = lat.Transfer(n, f)
		}
	}
}

// CondAtom is one conjunct extracted from a branch condition: Expr holds
// with the given truth on the refined edge.
type CondAtom struct {
	Expr  ast.Expr
	Truth bool
}

// CondAtoms decomposes cond under the given truth into conjuncts that all
// hold: `a && b` true yields both; `a || b` false yields both negated;
// `!a` flips; parentheses unwrap. Disjunctive knowledge (`a && b` false)
// yields nothing — clients must stay conservative there.
func CondAtoms(cond ast.Expr, truth bool) []CondAtom {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return CondAtoms(e.X, truth)
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return CondAtoms(e.X, !truth)
		}
	case *ast.BinaryExpr:
		if (e.Op == token.LAND && truth) || (e.Op == token.LOR && !truth) {
			return append(CondAtoms(e.X, truth), CondAtoms(e.Y, truth)...)
		}
		if e.Op == token.LAND || e.Op == token.LOR {
			return nil // disjunction: no conjunctive refinement
		}
	}
	return []CondAtom{{Expr: cond, Truth: truth}}
}

// nameSet is the fact of the may-analyses over names (lock classes that
// may be held, packet identifiers that may be tainted). Sets are immutable
// once handed to the engine: nil is the empty set, and with/without copy
// on write.
type nameSet map[string]bool

func (s nameSet) with(k string) nameSet {
	if s[k] {
		return s
	}
	t := make(nameSet, len(s)+1)
	for x := range s {
		t[x] = true
	}
	t[k] = true
	return t
}

func (s nameSet) without(k string) nameSet {
	if !s[k] {
		return s
	}
	t := make(nameSet, len(s)-1)
	for x := range s {
		if x != k {
			t[x] = true
		}
	}
	return t
}

// sorted returns the members in order; nil for the empty set.
func (s nameSet) sorted() []string {
	if len(s) == 0 {
		return nil
	}
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mayLattice is the union lattice over nameSet: a name present on any
// incoming path is present after the join. Clients embed it and supply
// Entry and Transfer; no edge refines the fact.
type mayLattice struct{}

func (mayLattice) Refine(e Edge, f nameSet) (nameSet, bool) { return f, true }

func (mayLattice) Join(a, b nameSet) nameSet {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	j := make(nameSet, len(a)+len(b))
	for k := range a {
		j[k] = true
	}
	for k := range b {
		j[k] = true
	}
	return j
}

func (mayLattice) Equal(a, b nameSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
