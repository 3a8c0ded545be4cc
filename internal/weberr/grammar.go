package weberr

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"github.com/dslab-epfl/warr/internal/command"
)

// Symbol is one right-hand-side element of a grammar rule: either a
// reference to another rule (Rule != "") or a terminal WaRR command
// (identified by its index into the grammar's base trace).
type Symbol struct {
	Rule string
	Cmd  int
}

// IsTerminal reports whether the symbol is a WaRR command.
func (s Symbol) IsTerminal() bool { return s.Rule == "" }

func (s Symbol) String() string {
	if s.IsTerminal() {
		return fmt.Sprintf("cmd%d", s.Cmd)
	}
	return s.Rule
}

// Rule is one production of the user-interaction grammar: an interaction
// step and the ordered sub-steps it expands to (§V-A: "We view an
// interaction step as a grammar rule").
type Rule struct {
	Name string
	RHS  []Symbol
}

// Grammar expresses a correct pattern of interaction with a web
// application. Expanding it recursively from the start rule regenerates
// a user-interaction trace.
type Grammar struct {
	Start string
	Rules map[string]*Rule
	// Trace is the base trace terminals index into.
	Trace command.Trace
}

// FromTaskTree converts an inferred task tree into a grammar: every
// internal node becomes a rule whose right-hand side lists its children
// in order; leaves are terminals.
func FromTaskTree(t *TaskTree) *Grammar {
	g := &Grammar{Start: "task", Rules: map[string]*Rule{}, Trace: t.Trace.Clone()}
	var build func(n *TaskNode) Symbol
	build = func(n *TaskNode) Symbol {
		if len(n.Children) == 0 && !n.IsRoot() {
			return Symbol{Cmd: n.Index}
		}
		name := "task"
		if !n.IsRoot() {
			name = fmt.Sprintf("step%d", n.Index)
		}
		r := &Rule{Name: name}
		if !n.IsRoot() {
			// An internal node is itself a command; it executes before
			// its sub-steps.
			r.RHS = append(r.RHS, Symbol{Cmd: n.Index})
		}
		for _, c := range n.Children {
			r.RHS = append(r.RHS, build(c))
		}
		g.Rules[name] = r
		return Symbol{Rule: name}
	}
	build(t.Root)
	return g
}

// Clone deep-copies the grammar (error injection mutates copies).
func (g *Grammar) Clone() *Grammar {
	out := &Grammar{Start: g.Start, Rules: make(map[string]*Rule, len(g.Rules)), Trace: g.Trace.Clone()}
	for name, r := range g.Rules {
		out.Rules[name] = &Rule{Name: r.Name, RHS: append([]Symbol(nil), r.RHS...)}
	}
	return out
}

// RuleNames returns the rule names in deterministic order.
func (g *Grammar) RuleNames() []string {
	names := make([]string, 0, len(g.Rules))
	for n := range g.Rules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// maxExpansionDepth guards against cycles introduced by substitution
// errors (a rule substituted into itself would otherwise loop forever).
const maxExpansionDepth = 64

// Expand regenerates a user-interaction trace by recursively applying
// the grammar's rules from the start rule. It walks the grammar twice,
// counting and then filling, so the commands are allocated once: a
// cyclic substitution expands to hundreds of commands.
func (g *Grammar) Expand() command.Trace {
	out := command.Trace{StartURL: g.Trace.StartURL}
	n := 0
	g.expand(Symbol{Rule: g.Start}, 0, func(int) { n++ })
	if n > 0 {
		out.Commands = make([]command.Command, 0, n)
		g.expand(Symbol{Rule: g.Start}, 0, func(i int) { out.Commands = append(out.Commands, g.Trace.Commands[i]) })
	}
	return out
}

// expand calls emit with the base-trace index of every terminal sym
// expands to, in order.
func (g *Grammar) expand(sym Symbol, depth int, emit func(int)) {
	if depth > maxExpansionDepth {
		return
	}
	if sym.IsTerminal() {
		if sym.Cmd >= 0 && sym.Cmd < len(g.Trace.Commands) {
			emit(sym.Cmd)
		}
		return
	}
	r, ok := g.Rules[sym.Rule]
	if !ok {
		return
	}
	for _, s := range r.RHS {
		g.expand(s, depth+1, emit)
	}
}

// String renders the grammar, one rule per line.
func (g *Grammar) String() string {
	var b strings.Builder
	for _, name := range g.RuleNames() {
		r := g.Rules[name]
		parts := make([]string, len(r.RHS))
		for i, s := range r.RHS {
			parts[i] = s.String()
		}
		fmt.Fprintf(&b, "%s -> %s\n", name, strings.Join(parts, " "))
	}
	return b.String()
}

// ExhaustiveReorderCount returns n! — the number of traces the naive
// approach ("apply all possible combinations of the above errors to a
// trace") would generate from an n-command trace considering only
// step-reordering errors. The paper's example: a 100-command trace
// yields permutations(100) = 100! tests. Grammar-confined injection
// replaces this with a per-rule enumeration.
func ExhaustiveReorderCount(n int) *big.Int {
	return new(big.Int).MulRange(1, int64(n))
}
