// Package lint is a repo-specific static-analysis suite built only on the
// standard library's go/parser, go/ast, and go/types. It enforces the
// invariants the internal/model checker assumes but the type system cannot
// express: no wall-clock or unseeded randomness inside virtual-clock
// packages, no raw mod-2^32 sequence arithmetic outside the packet helpers,
// no event scheduling from nondeterministic map iteration, no lock misuse,
// and no silently dropped errors on the packet/TCP send paths.
//
// Findings are suppressed with a justified comment on or directly above the
// offending line:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory: a suppression without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at a position. Interprocedural rules
// (allocfree, blockfree) additionally carry the call chain from the
// hot-path root to the function containing Pos.
type Finding struct {
	Rule  string
	Pos   token.Position
	Msg   string
	Chain []string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one named rule. Per-package rules implement Run; rules that
// need a whole-module view (cross-package call graphs, conformance against
// another package's model) implement RunModule instead, and receive the
// module call graph lint.Run builds once for all of them. Exactly one of
// the two should be set.
type Analyzer struct {
	// Name is the rule ID used in reports and //lint:ignore comments.
	Name string
	// Doc is a one-line description of the invariant the rule guards.
	Doc string
	// Run reports violations in pkg. Suppression is applied by the caller.
	Run func(pkg *Package) []Finding
	// RunModule reports violations across all loaded packages at once; cg
	// is BuildCallGraph(pkgs), shared by every module rule of the run.
	RunModule func(pkgs []*Package, cg *CallGraph) []Finding
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		WalltimeAnalyzer,
		SeqarithAnalyzer,
		MapiterAnalyzer,
		LocksafeAnalyzer,
		ErrdropAnalyzer,
		StatexhaustAnalyzer,
		LockorderAnalyzer,
		RewritetaintAnalyzer,
		FsmconformAnalyzer,
		ObsexhaustAnalyzer,
		AllocfreeAnalyzer,
		BlockfreeAnalyzer,
		GoroleakAnalyzer,
		WiresafeAnalyzer,
	}
}

// ByName resolves a comma-separated rule list ("walltime,seqarith") to
// analyzers; an unknown name is an error.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// ignoreDirective is one parsed //lint:ignore comment. It suppresses
// matching findings on its own line (trailing comment) and on the line
// directly below it (comment above the offending statement).
type ignoreDirective struct {
	rules  map[string]bool // rule IDs the directive covers
	reason string
	pos    token.Position
}

const ignorePrefix = "//lint:ignore"

// parseIgnores collects the //lint:ignore directives of a file.
func parseIgnores(pkg *Package, f *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			fields := strings.Fields(rest)
			d := &ignoreDirective{pos: pkg.Fset.Position(c.Pos()), rules: make(map[string]bool)}
			if len(fields) >= 1 {
				for _, r := range strings.Split(fields[0], ",") {
					d.rules[r] = true
				}
			}
			if len(fields) >= 2 {
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppression, and returns surviving findings sorted by (file, line,
// column, rule, message). A
// malformed directive (no rule, or no reason) is reported as a finding of
// rule "lint", and so is a directive that suppressed nothing — a stale
// suppression hides the next real finding on its line, so it must go as
// soon as the code it excused is gone. Unused reporting only fires when
// every rule the directive names is part of this run; a `-rules` subset
// cannot know whether the other rules still need it.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	var ignores []*ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ignores = append(ignores, parseIgnores(pkg, f)...)
		}
	}
	for _, d := range ignores {
		if len(d.rules) == 0 || d.reason == "" {
			all = append(all, Finding{
				Rule: "lint",
				Pos:  d.pos,
				Msg:  "malformed //lint:ignore: want \"//lint:ignore <rule> <reason>\"",
			})
		}
	}
	used := make(map[*ignoreDirective]bool)
	keep := func(f Finding) {
		if d := suppressor(f, ignores); d != nil {
			used[d] = true
			return
		}
		all = append(all, f)
	}
	var cg *CallGraph
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				for _, f := range a.Run(pkg) {
					keep(f)
				}
			}
		}
		if a.RunModule != nil {
			if cg == nil {
				cg = BuildCallGraph(pkgs)
			}
			for _, f := range a.RunModule(pkgs, cg) {
				keep(f)
			}
		}
	}
	ruleSet := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ruleSet[a.Name] = true
	}
	for _, d := range ignores {
		if used[d] || len(d.rules) == 0 || d.reason == "" {
			continue
		}
		var names []string
		known := true
		for r := range d.rules {
			known = known && ruleSet[r]
			names = append(names, r)
		}
		if !known {
			continue
		}
		sort.Strings(names)
		all = append(all, Finding{
			Rule: "lint",
			Pos:  d.pos,
			Msg:  fmt.Sprintf("unused //lint:ignore %s: the directive suppresses nothing; remove it", strings.Join(names, ",")),
		})
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		switch {
		case posLess(a.Pos, b.Pos):
			return true
		case posLess(b.Pos, a.Pos):
			return false
		case a.Rule != b.Rule:
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return all
}

// suppressor returns the directive that suppresses f, or nil.
func suppressor(f Finding, ignores []*ignoreDirective) *ignoreDirective {
	for _, d := range ignores {
		if d.reason == "" || len(d.rules) == 0 {
			continue
		}
		if f.Pos.Filename != d.pos.Filename || !d.rules[f.Rule] {
			continue
		}
		if f.Pos.Line == d.pos.Line || f.Pos.Line == d.pos.Line+1 {
			return d
		}
	}
	return nil
}
