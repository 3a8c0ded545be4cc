package dom

// QueryIndex maintains persistent per-document lookup tables — elements
// by id, by tag, and by (attribute name, attribute value) — kept
// incrementally up to date by the tree mutation methods (AppendChild,
// InsertBefore, Detach, SetAttr, RemoveAttr, SetData, ...). The XPath
// evaluator anchors selective predicates on these tables, turning an
// `[@id=...]` step into an O(1) jump instead of a full-tree walk.
//
// A QueryIndex is owned by the tree hanging off one root node (normally a
// #document node). Every node in the tree carries a pointer to the index;
// detached subtrees carry none and are queried by the tree-walking
// fallback evaluator instead. Because the tables are maintained inline
// with every mutation, a lookup can never observe stale state; the
// generation counter additionally lets derived caches detect that the
// tree changed under them.
//
// Buckets are unordered node slices rather than pointer sets, so copying
// a document (CloneWithIndex) fills the copy's buckets as it walks the
// tree instead of rehashing every node pointer.
type QueryIndex struct {
	root *Node
	gen  uint64

	byID   map[string][]*Node
	byTag  map[string][]*Node
	byAttr map[attrKey][]*Node

	// events counts dispatched events per (type, target tag, target id)
	// — the event-handler lane of the replay coverage signal. Counters
	// are observational only: they never affect queries and do not bump
	// the generation counter, so layout caches stay valid across them.
	events map[EventKey]uint64
}

// EventKey identifies one event-dispatch counter: the event type plus
// the target element's tag and id attribute (either may be empty).
type EventKey struct {
	Type string
	Tag  string
	ID   string
}

// attrKey identifies one (attribute name, attribute value) bucket.
type attrKey struct {
	name  string
	value string
}

// buildIndex indexes the whole tree rooted at root and stamps every node
// with the new index.
func buildIndex(root *Node) *QueryIndex {
	ix := &QueryIndex{
		root:   root,
		byID:   make(map[string][]*Node),
		byTag:  make(map[string][]*Node),
		byAttr: make(map[attrKey][]*Node),
	}
	ix.addSubtree(root)
	return ix
}

// Root returns the root node the index covers.
func (ix *QueryIndex) Root() *Node { return ix.root }

// Generation returns the mutation counter. It increases on every indexed
// mutation of the tree (structure, attributes, character data), so any
// cache keyed on a generation value is invalidated by the next mutation.
func (ix *QueryIndex) Generation() uint64 { return ix.gen }

// CountTag returns how many elements carry the given tag.
func (ix *QueryIndex) CountTag(tag string) int { return len(ix.byTag[tag]) }

// CountAttr returns how many elements carry the attribute name=value.
func (ix *QueryIndex) CountAttr(name, value string) int {
	if name == "id" {
		return len(ix.byID[value])
	}
	return len(ix.byAttr[attrKey{name, value}])
}

// NodesByAttr returns the elements carrying the attribute name=value, in
// no particular order. The slice is the index's own bucket, not a copy:
// callers must not modify it, and it is valid only until the next
// mutation of the tree.
func (ix *QueryIndex) NodesByAttr(name, value string) []*Node {
	if name == "id" {
		return ix.byID[value]
	}
	return ix.byAttr[attrKey{name, value}]
}

// ByID returns the first element in document order whose id attribute
// equals id, or nil. Duplicate ids (invalid but common HTML) resolve the
// way getElementById does: the earliest element wins.
func (ix *QueryIndex) ByID(id string) *Node {
	var first *Node
	for _, n := range ix.byID[id] {
		if first == nil || CompareDocumentOrder(n, first) < 0 {
			first = n
		}
	}
	return first
}

// addSubtree registers n and every descendant.
func (ix *QueryIndex) addSubtree(n *Node) {
	ix.gen++
	n.walk(func(m *Node) bool {
		m.qidx = ix
		if m.Type == ElementNode {
			ix.insert(m)
		}
		return true
	})
}

// removeSubtree deregisters n and every descendant.
func (ix *QueryIndex) removeSubtree(n *Node) {
	ix.gen++
	n.walk(func(m *Node) bool {
		if m.Type == ElementNode {
			ix.remove(m)
		}
		m.qidx = nil
		return true
	})
}

func (ix *QueryIndex) insert(n *Node) {
	addTo(ix.byTag, n.Tag, n)
	for _, a := range n.attrs {
		ix.insertAttr(n, a.Name, a.Value)
	}
}

func (ix *QueryIndex) remove(n *Node) {
	removeFrom(ix.byTag, n.Tag, n)
	for _, a := range n.attrs {
		ix.removeAttr(n, a.Name, a.Value)
	}
}

func (ix *QueryIndex) insertAttr(n *Node, name, value string) {
	if name == "id" {
		addTo(ix.byID, value, n)
		return
	}
	addTo(ix.byAttr, attrKey{name, value}, n)
}

func (ix *QueryIndex) removeAttr(n *Node, name, value string) {
	if name == "id" {
		removeFrom(ix.byID, value, n)
		return
	}
	removeFrom(ix.byAttr, attrKey{name, value}, n)
}

// attrChanged records an attribute value change on an indexed element.
func (ix *QueryIndex) attrChanged(n *Node, name, old, new string) {
	ix.gen++
	ix.removeAttr(n, name, old)
	ix.insertAttr(n, name, new)
}

// attrAdded records a newly set attribute on an indexed element.
func (ix *QueryIndex) attrAdded(n *Node, name, value string) {
	ix.gen++
	ix.insertAttr(n, name, value)
}

// attrRemoved records a deleted attribute on an indexed element.
func (ix *QueryIndex) attrRemoved(n *Node, name, value string) {
	ix.gen++
	ix.removeAttr(n, name, value)
}

// dataChanged records a character-data mutation (text or comment nodes).
func (ix *QueryIndex) dataChanged() { ix.gen++ }

// NoteEvent counts one dispatched event against the tree. The map is
// lazily allocated so documents that never see a dispatch pay nothing.
func (ix *QueryIndex) NoteEvent(k EventKey) {
	if ix.events == nil {
		ix.events = make(map[EventKey]uint64)
	}
	ix.events[k]++
}

// VisitEvents calls fn for every event-dispatch counter, in no
// particular order. Callers folding the counters into a coverage
// fingerprint must combine commutatively.
func (ix *QueryIndex) VisitEvents(fn func(k EventKey, count uint64)) {
	for k, c := range ix.events {
		fn(k, c)
	}
}

func addTo[K comparable](m map[K][]*Node, k K, n *Node) {
	m[k] = append(m[k], n)
}

// removeFrom deletes n from bucket k, moving the bucket's last entry into
// its slot. The scan starts at the end, where the most recently attached
// elements sit.
func removeFrom[K comparable](m map[K][]*Node, k K, n *Node) {
	b := m[k]
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != n {
			continue
		}
		last := len(b) - 1
		b[i] = b[last]
		b[last] = nil
		if last == 0 {
			delete(m, k)
		} else {
			m[k] = b[:last]
		}
		return
	}
}

// CompareDocumentOrder orders two nodes of the same tree by document
// order: negative when a precedes b, positive when it follows, zero when
// a == b. An ancestor precedes its descendants. Nodes of disjoint trees
// compare as equal.
func CompareDocumentOrder(a, b *Node) int {
	if a == b {
		return 0
	}
	ca := ancestorChain(a)
	cb := ancestorChain(b)
	n := len(ca)
	if len(cb) < n {
		n = len(cb)
	}
	for i := 0; i < n; i++ {
		if ca[i] != cb[i] {
			if i == 0 {
				return 0 // disjoint trees
			}
			return ca[i].Index() - cb[i].Index()
		}
	}
	// One chain is a prefix of the other: the ancestor comes first.
	return len(ca) - len(cb)
}

// ancestorChain returns the path from the root down to n, inclusive.
func ancestorChain(n *Node) []*Node {
	depth := n.Depth() + 1
	chain := make([]*Node, depth)
	for cur := n; cur != nil; cur = cur.parent {
		depth--
		chain[depth] = cur
	}
	return chain
}
