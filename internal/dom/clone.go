package dom

// CloneWithIndex deep-copies the document. The copy's query index is
// filled by the copy walk itself: each copied element is inserted into
// buckets pre-sized from the original's, so no node pointer is ever
// translated or rehashed. The generation counter and the event counters
// carry over, so caches keyed on a generation value (frame layout) stay
// coherent across a fork.
//
// When nodeMap is non-nil the copy records every old-node → new-node
// pair in it (the browser's fork re-targets script handles and
// listeners through it); page loads from a template pass nil.
//
// Event listeners are not copied (cloneNode semantics); the browser
// re-registers them from its own listener log.
func (d *Document) CloneWithIndex(nodeMap map[*Node]*Node) *Document {
	return &Document{root: copyTree(d.root, d.root.qidx, nodeMap), URL: d.URL}
}

// CloneMapped copies the (detached, unindexed) subtree rooted at n,
// recording every node pair in nodeMap. The browser's fork uses it for
// trees that live only in script variables — created by createElement
// and never attached — so aliases into such trees survive a fork.
func CloneMapped(n *Node, nodeMap map[*Node]*Node) *Node {
	return copyTree(n, nil, nodeMap)
}

// copyTree copies the tree rooted at n. With ix non-nil (the index n's
// tree is under), the copy gets its own index, filled as it is copied.
func copyTree(n *Node, ix *QueryIndex, nodeMap map[*Node]*Node) *Node {
	// Count first, then carve every clone out of three arenas — the
	// nodes, their attribute lists, and their child lists. Campaign
	// forking clones documents once per divergent suffix, and three
	// allocations per node dominated the checkpoint cost.
	nodes, attrs, kids := 0, 0, 0
	n.walk(func(m *Node) bool {
		nodes++
		attrs += len(m.attrs)
		kids += len(m.children)
		return true
	})
	arena := cloneArena{
		nodes:   make([]Node, 0, nodes),
		attrs:   make([]Attr, 0, attrs),
		kids:    make([]*Node, 0, kids),
		nodeMap: nodeMap,
	}
	if ix != nil {
		arena.ix = ix.emptyCopy()
	}
	root := arena.clone(n)
	if arena.ix != nil {
		arena.ix.root = root
	}
	return root
}

// emptyCopy returns an index with ix's generation, event counters and
// bucket keys, each bucket empty but with room for as many nodes as ix
// holds under its key — all carved from one backing array.
func (ix *QueryIndex) emptyCopy() *QueryIndex {
	total := 0
	for _, b := range ix.byTag {
		total += len(b)
	}
	for _, b := range ix.byID {
		total += len(b)
	}
	for _, b := range ix.byAttr {
		total += len(b)
	}
	backing := make([]*Node, total)
	dup := &QueryIndex{
		gen:    ix.gen,
		byID:   emptyBuckets(ix.byID, &backing),
		byTag:  emptyBuckets(ix.byTag, &backing),
		byAttr: emptyBuckets(ix.byAttr, &backing),
	}
	// Event-dispatch counters carry over so a forked session's coverage
	// fingerprint stays cumulative: clone-time counts plus the suffix's
	// own dispatches equal a flat replay's counts.
	if len(ix.events) > 0 {
		dup.events = make(map[EventKey]uint64, len(ix.events))
		for k, c := range ix.events {
			dup.events[k] = c
		}
	}
	return dup
}

// emptyBuckets gives every key of src an empty bucket whose capacity is
// the source bucket's length, cut from the front of *backing.
func emptyBuckets[K comparable](src map[K][]*Node, backing *[]*Node) map[K][]*Node {
	dst := make(map[K][]*Node, len(src))
	for k, b := range src {
		dst[k] = (*backing)[:0:len(b)]
		*backing = (*backing)[len(b):]
	}
	return dst
}

// cloneArena bulk-allocates clone storage. Nodes created here live and
// die together with the copied tree, so slice-backed storage wastes
// nothing; a node later detached from the clone keeps the arena alive,
// which is fine for the fork lifetimes checkpointing creates.
type cloneArena struct {
	nodes []Node
	attrs []Attr
	kids  []*Node

	ix      *QueryIndex     // the copy's index, nil for an unindexed tree
	nodeMap map[*Node]*Node // old → new pairs, when the caller wants them
}

func (a *cloneArena) clone(n *Node) *Node {
	a.nodes = append(a.nodes, Node{Type: n.Type, Tag: n.Tag, Data: n.Data, Value: n.Value, qidx: a.ix})
	c := &a.nodes[len(a.nodes)-1]
	if len(n.attrs) > 0 {
		start := len(a.attrs)
		a.attrs = append(a.attrs, n.attrs...)
		c.attrs = a.attrs[start : start+len(n.attrs) : start+len(n.attrs)]
	}
	if a.ix != nil && c.Type == ElementNode {
		a.ix.insert(c)
	}
	if a.nodeMap != nil {
		a.nodeMap[n] = c
	}
	if len(n.children) > 0 {
		start := len(a.kids)
		a.kids = a.kids[:start+len(n.children)]
		kids := a.kids[start : start+len(n.children) : start+len(n.children)]
		for i, child := range n.children {
			dup := a.clone(child)
			dup.parent = c
			kids[i] = dup
		}
		c.children = kids
	}
	return c
}
