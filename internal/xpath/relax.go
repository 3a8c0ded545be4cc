package xpath

// This file implements the WaRR Replayer's progressive XPath relaxation
// (paper §IV-C): when a recorded expression no longer matches — e.g. GMail
// regenerates element ids on every load — the replayer "progressively
// simplifies the expression to find a matching element", guided by
// heuristics that (1) remove attributes such as id, (2) maintain only
// certain attributes such as name, and (3) discard a prefix of the
// expression (//td/div[@id="id1"] → //div[@id="id1"]).

// Relaxation is one relaxed variant of an expression, with a description
// of the heuristic that produced it (surfaced in replay logs and tests).
type Relaxation struct {
	Path      Path
	Heuristic string
	// Expr is Path rendered (Path.String()), kept from deduplication so
	// the replayer can report the expression it used without
	// re-rendering it on every relaxed step.
	Expr string
}

// Relaxations returns the ordered sequence of progressively weaker
// expressions the replayer should try after the original fails: most
// specific first, tag-only last. The original path itself is not included.
func Relaxations(p Path) []Relaxation {
	var out []Relaxation
	seen := map[string]bool{p.String(): true}
	add := func(r Relaxation) {
		r.Expr = r.Path.String()
		if len(r.Path.Steps) == 0 || seen[r.Expr] {
			return
		}
		seen[r.Expr] = true
		out = append(out, r)
	}

	// Heuristic 1: discard prefixes of the expression, longest first
	// (//td/div[...] → //div[...]).
	for i := 1; i < len(p.Steps); i++ {
		add(Relaxation{Path: dropPrefix(p, i), Heuristic: "drop-prefix"})
	}

	// Heuristic 2: keep only name attributes (drop ids and text, which
	// dynamic applications regenerate).
	add(Relaxation{Path: keepOnlyAttr(p, "name"), Heuristic: "keep-only-name"})
	add(Relaxation{Path: dropPrefix(keepOnlyAttr(p, "name"), len(p.Steps)-1), Heuristic: "keep-only-name+drop-prefix"})

	// Heuristic 3: remove attribute predicates entirely, keeping text and
	// positions.
	add(Relaxation{Path: removeAttrPreds(p), Heuristic: "remove-attributes"})
	add(Relaxation{Path: dropPrefix(removeAttrPreds(p), len(p.Steps)-1), Heuristic: "remove-attributes+drop-prefix"})

	// Last resort: the bare tag of the final step anywhere in the page.
	last := p.Steps[len(p.Steps)-1]
	add(Relaxation{
		Path:      Path{Steps: []Step{{Deep: true, Tag: last.Tag}}},
		Heuristic: "tag-only",
	})
	return out
}

// dropPrefix removes the first n steps, forcing the new first step onto
// the descendant axis so it can match anywhere.
func dropPrefix(p Path, n int) Path {
	if n <= 0 || n >= len(p.Steps) {
		n = len(p.Steps) - 1
	}
	if n < 0 {
		return p.Clone()
	}
	out := p.Clone()
	out.Steps = out.Steps[n:]
	out.Steps[0].Deep = true
	return out
}

// keepOnlyAttr keeps only AttrEq predicates with the given name (plus
// positional predicates); all other predicates are dropped.
func keepOnlyAttr(p Path, name string) Path {
	out := p.Clone()
	for i := range out.Steps {
		var kept []Pred
		for _, pred := range out.Steps[i].Preds {
			switch q := pred.(type) {
			case AttrEq:
				if q.Name == name {
					kept = append(kept, q)
				}
			case Position:
				kept = append(kept, q)
			}
		}
		out.Steps[i].Preds = kept
	}
	return out
}

// removeAttrPreds drops all attribute predicates, keeping text and
// position predicates.
func removeAttrPreds(p Path) Path {
	out := p.Clone()
	for i := range out.Steps {
		var kept []Pred
		for _, pred := range out.Steps[i].Preds {
			if _, isAttr := pred.(AttrEq); !isAttr {
				kept = append(kept, pred)
			}
		}
		out.Steps[i].Preds = kept
	}
	return out
}
