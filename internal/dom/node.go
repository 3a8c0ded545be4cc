// Package dom implements the Document Object Model used by the simulated
// browser: element trees, attributes, mutation, serialization, and the
// structural shape-similarity metric that WebErr's grammar inference uses
// (paper §V-A: "Computing the similarity of web pages is based on their
// DOM shape, taking into account the type of the HTML elements and their
// id property").
package dom

import (
	"fmt"
	"strings"
)

// NodeType discriminates the kinds of nodes in a DOM tree.
type NodeType int

// Node types. Values mirror the DOM spec's numbering where it exists.
const (
	ElementNode NodeType = iota + 1
	TextNode
	CommentNode
	DocumentNode
)

func (t NodeType) String() string {
	switch t {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case DocumentNode:
		return "document"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Attr is a single element attribute. Attribute order is preserved so that
// serialization is deterministic.
type Attr struct {
	Name  string
	Value string
}

// Listener is an event listener registered on a node. The Fn field is
// opaque to this package; the event package stores its handler type here.
// Keeping storage on the node (rather than a side table) means listeners
// follow the node through tree mutations, exactly as in a browser.
type Listener struct {
	Type    string // event type, e.g. "click"
	Capture bool   // fire during the capture phase
	Fn      any
}

// Node is a node in a DOM tree. The zero value is not useful; construct
// nodes with NewElement, NewText, NewComment, or NewDocument.
type Node struct {
	Type NodeType

	// Tag is the lowercase element name for ElementNode ("div", "input").
	Tag string

	// Data holds the text for TextNode and CommentNode.
	Data string

	attrs     []Attr
	parent    *Node
	children  []*Node
	listeners []Listener

	// qidx points to the QueryIndex of the indexed tree the node belongs
	// to, nil for nodes in unindexed (detached) trees. Mutation methods
	// keep the index in sync.
	qidx *QueryIndex

	// Value models the DOM "value" property of input/textarea elements.
	// It is a property, not an attribute: typing changes Value but not
	// the serialized value="..." attribute, as in real browsers. The
	// distinction matters for the paper's ChromeDriver text-input fix
	// (§IV-C): setting value on a <div> does nothing visible, which is
	// exactly the bug WaRR's replayer works around.
	Value string
}

// NewElement returns a new element node with the given tag (lowercased)
// and alternating name/value attribute pairs.
func NewElement(tag string, attrPairs ...string) *Node {
	if len(attrPairs)%2 != 0 {
		panic("dom.NewElement: odd number of attribute arguments")
	}
	n := &Node{Type: ElementNode, Tag: strings.ToLower(tag)}
	for i := 0; i < len(attrPairs); i += 2 {
		n.SetAttr(attrPairs[i], attrPairs[i+1])
	}
	return n
}

// NewText returns a new text node.
func NewText(data string) *Node { return &Node{Type: TextNode, Data: data} }

// NewComment returns a new comment node.
func NewComment(data string) *Node { return &Node{Type: CommentNode, Data: data} }

// NewDocumentNode returns a bare #document node.
func NewDocumentNode() *Node { return &Node{Type: DocumentNode, Tag: "#document"} }

// Parent returns the node's parent, or nil for a detached or root node.
func (n *Node) Parent() *Node { return n.parent }

// QueryIndex returns the index of the tree the node belongs to, or nil
// when the tree is not indexed (detached subtrees, bare NewElement trees).
func (n *Node) QueryIndex() *QueryIndex { return n.qidx }

// NoteEvent counts a dispatched event of the given type against the
// node's tree index. Dispatches to detached (unindexed) targets are
// not counted — coverage only tracks the live document.
func (n *Node) NoteEvent(typ string) {
	if n.qidx != nil {
		n.qidx.NoteEvent(EventKey{Type: typ, Tag: n.Tag, ID: n.ID()})
	}
}

// Children returns the node's children. The returned slice is a copy; the
// tree can only be mutated through the mutation methods.
func (n *Node) Children() []*Node {
	out := make([]*Node, len(n.children))
	copy(out, n.children)
	return out
}

// NumChildren returns the number of children without copying.
func (n *Node) NumChildren() int { return len(n.children) }

// ChildAt returns the i'th child, or nil if out of range.
func (n *Node) ChildAt(i int) *Node {
	if i < 0 || i >= len(n.children) {
		return nil
	}
	return n.children[i]
}

// FirstChild returns the first child or nil.
func (n *Node) FirstChild() *Node { return n.ChildAt(0) }

// LastChild returns the last child or nil.
func (n *Node) LastChild() *Node { return n.ChildAt(len(n.children) - 1) }

// ChildElements returns the element children only.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// Index returns the node's position among its parent's children, or -1
// for a detached node.
func (n *Node) Index() int {
	if n.parent == nil {
		return -1
	}
	for i, c := range n.parent.children {
		if c == n {
			return i
		}
	}
	return -1
}

// ElementIndex returns the node's 1-based position among its parent's
// children that share its tag, as used by XPath positional predicates
// (e.g. div[2]). It returns 1 for a detached node.
func (n *Node) ElementIndex() int {
	if n.parent == nil {
		return 1
	}
	pos := 0
	for _, c := range n.parent.children {
		if c.Type == ElementNode && c.Tag == n.Tag {
			pos++
			if c == n {
				return pos
			}
		}
	}
	return 1
}

// NextSibling returns the following sibling or nil.
func (n *Node) NextSibling() *Node {
	i := n.Index()
	if i < 0 {
		return nil
	}
	return n.parent.ChildAt(i + 1)
}

// PrevSibling returns the preceding sibling or nil.
func (n *Node) PrevSibling() *Node {
	i := n.Index()
	if i < 0 {
		return nil
	}
	return n.parent.ChildAt(i - 1)
}

// AppendChild adds c as the last child of n, detaching c from any previous
// parent first.
func (n *Node) AppendChild(c *Node) {
	if c == nil {
		return
	}
	if c == n || c.Contains(n) {
		panic("dom: AppendChild would create a cycle")
	}
	c.Detach()
	c.parent = n
	n.children = append(n.children, c)
	if n.qidx != nil {
		n.qidx.addSubtree(c)
	}
}

// InsertBefore inserts c immediately before ref among n's children. A nil
// ref appends.
func (n *Node) InsertBefore(c, ref *Node) {
	if c == nil {
		return
	}
	if ref == nil {
		n.AppendChild(c)
		return
	}
	if ref.parent != n {
		panic("dom: InsertBefore reference is not a child")
	}
	if c == n || c.Contains(n) {
		panic("dom: InsertBefore would create a cycle")
	}
	c.Detach()
	i := ref.Index()
	c.parent = n
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
	if n.qidx != nil {
		n.qidx.addSubtree(c)
	}
}

// RemoveChild removes c from n's children. It panics if c is not a child
// of n.
func (n *Node) RemoveChild(c *Node) {
	if c.parent != n {
		panic("dom: RemoveChild of a non-child")
	}
	c.Detach()
}

// Detach removes the node from its parent, if any.
func (n *Node) Detach() {
	p := n.parent
	if p == nil {
		return
	}
	if n.qidx != nil {
		n.qidx.removeSubtree(n)
	}
	i := n.Index()
	p.children = append(p.children[:i], p.children[i+1:]...)
	n.parent = nil
}

// RemoveChildren detaches all children.
func (n *Node) RemoveChildren() {
	for len(n.children) > 0 {
		n.children[len(n.children)-1].Detach()
	}
}

// ReplaceChild swaps old (a child of n) for c.
func (n *Node) ReplaceChild(c, old *Node) {
	if old.parent != n {
		panic("dom: ReplaceChild of a non-child")
	}
	n.InsertBefore(c, old)
	old.Detach()
}

// Contains reports whether other is n or a descendant of n.
func (n *Node) Contains(other *Node) bool {
	for cur := other; cur != nil; cur = cur.parent {
		if cur == n {
			return true
		}
	}
	return false
}

// Root returns the topmost ancestor of n (possibly n itself).
func (n *Node) Root() *Node {
	cur := n
	for cur.parent != nil {
		cur = cur.parent
	}
	return cur
}

// Depth returns the number of ancestors above n.
func (n *Node) Depth() int {
	d := 0
	for cur := n.parent; cur != nil; cur = cur.parent {
		d++
	}
	return d
}

// Attr returns the value of the named attribute and whether it is present.
// The name is case-folded, as HTML attribute names are.
func (n *Node) Attr(name string) (string, bool) {
	return n.AttrExact(strings.ToLower(name))
}

// AttrExact is Attr for a name already in lower case, the case every
// attribute is stored in: it skips the case folding. Callers that pass
// lower-case literals use it; names a script supplies go through Attr.
func (n *Node) AttrExact(name string) (string, bool) {
	for _, a := range n.attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// HasAttrPrefix reports whether any attribute name starts with the
// lower-case prefix.
func (n *Node) HasAttrPrefix(prefix string) bool {
	for _, a := range n.attrs {
		if strings.HasPrefix(a.Name, prefix) {
			return true
		}
	}
	return false
}

// AttrOr returns the named attribute's value, or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// HasAttr reports whether the named attribute is present.
func (n *Node) HasAttr(name string) bool {
	_, ok := n.Attr(name)
	return ok
}

// SetAttr sets the named attribute, replacing any existing value.
func (n *Node) SetAttr(name, value string) {
	name = strings.ToLower(name)
	for i, a := range n.attrs {
		if a.Name == name {
			if a.Value != value {
				n.attrs[i].Value = value
				if n.qidx != nil && n.Type == ElementNode {
					n.qidx.attrChanged(n, name, a.Value, value)
				}
			}
			return
		}
	}
	n.attrs = append(n.attrs, Attr{Name: name, Value: value})
	if n.qidx != nil && n.Type == ElementNode {
		n.qidx.attrAdded(n, name, value)
	}
}

// RemoveAttr deletes the named attribute if present.
func (n *Node) RemoveAttr(name string) {
	name = strings.ToLower(name)
	for i, a := range n.attrs {
		if a.Name == name {
			n.attrs = append(n.attrs[:i], n.attrs[i+1:]...)
			if n.qidx != nil && n.Type == ElementNode {
				n.qidx.attrRemoved(n, name, a.Value)
			}
			return
		}
	}
}

// Attrs returns a copy of the attribute list in document order.
func (n *Node) Attrs() []Attr {
	out := make([]Attr, len(n.attrs))
	copy(out, n.attrs)
	return out
}

// ID returns the element's id attribute ("" when absent).
func (n *Node) ID() string {
	id, _ := n.AttrExact("id")
	return id
}

// TextContent returns the concatenated text of all descendant text nodes.
func (n *Node) TextContent() string {
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Type == TextNode {
		b.WriteString(n.Data)
		return
	}
	for _, c := range n.children {
		c.appendText(b)
	}
}

// SetTextContent replaces all children with a single text node (or
// nothing, for the empty string).
func (n *Node) SetTextContent(s string) {
	n.RemoveChildren()
	if s != "" {
		n.AppendChild(NewText(s))
	}
}

// SetData replaces the node's character data (text or comment nodes),
// recording the mutation in the tree's query index generation. Prefer it
// over writing Data directly so index-generation-based caches see text
// edits.
func (n *Node) SetData(s string) {
	if n.Data == s {
		return
	}
	n.Data = s
	if n.qidx != nil {
		n.qidx.dataChanged()
	}
}

// AppendData appends to the node's character data (the per-keystroke text
// mutation path).
func (n *Node) AppendData(s string) {
	if s == "" {
		return
	}
	n.Data += s
	if n.qidx != nil {
		n.qidx.dataChanged()
	}
}

// SetValue sets the DOM value property, recording the mutation in the
// index generation — layout depends on input values, so generation-keyed
// caches must see value edits. Prefer it over writing Value directly.
func (n *Node) SetValue(s string) {
	if n.Value == s {
		return
	}
	n.Value = s
	if n.qidx != nil {
		n.qidx.dataChanged()
	}
}

// AppendValue appends to the DOM value property (the per-keystroke input
// mutation path).
func (n *Node) AppendValue(s string) {
	if s == "" {
		return
	}
	n.Value += s
	if n.qidx != nil {
		n.qidx.dataChanged()
	}
}

// OwnText returns the concatenated text of the node's direct text-node
// children only.
func (n *Node) OwnText() string {
	var b strings.Builder
	for _, c := range n.children {
		if c.Type == TextNode {
			b.WriteString(c.Data)
		}
	}
	return b.String()
}

// Walk visits n and every descendant in document order. Returning false
// from fn stops the walk.
func (n *Node) Walk(fn func(*Node) bool) {
	n.walk(fn)
}

func (n *Node) walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.children {
		if !c.walk(fn) {
			return false
		}
	}
	return true
}

// Find returns the first node in document order satisfying pred, or nil.
func (n *Node) Find(pred func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if pred(m) {
			found = m
			return false
		}
		return true
	})
	return found
}

// FindAll returns every node in document order satisfying pred.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if pred(m) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// ElementsByTag returns all descendant elements with the given tag,
// excluding n itself (getElementsByTagName semantics).
func (n *Node) ElementsByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	return n.FindAll(func(m *Node) bool {
		return m != n && m.Type == ElementNode && m.Tag == tag
	})
}

// ByID returns the first descendant element whose id attribute equals id,
// or nil.
func (n *Node) ByID(id string) *Node {
	return n.Find(func(m *Node) bool {
		return m.Type == ElementNode && m.ID() == id
	})
}

// Clone returns a copy of the node. With deep set, descendants are copied
// too. Event listeners are not cloned, matching cloneNode semantics in
// real DOM implementations.
func (n *Node) Clone(deep bool) *Node {
	c := &Node{Type: n.Type, Tag: n.Tag, Data: n.Data, Value: n.Value}
	c.attrs = make([]Attr, len(n.attrs))
	copy(c.attrs, n.attrs)
	if deep {
		for _, child := range n.children {
			c.AppendChild(child.Clone(true))
		}
	}
	return c
}

// AddListener registers an event listener on the node.
func (n *Node) AddListener(l Listener) {
	n.listeners = append(n.listeners, l)
}

// RemoveListeners drops all listeners for the given event type (all types
// when typ is empty).
func (n *Node) RemoveListeners(typ string) {
	kept := n.listeners[:0]
	for _, l := range n.listeners {
		if typ != "" && l.Type != typ {
			kept = append(kept, l)
		}
	}
	n.listeners = kept
}

// Listeners returns the node's listener list in registration order.
// The returned slice is the node's own storage: callers must treat it
// as read-only and must not hold it across mutations. Event dispatch
// iterates it allocation-free.
func (n *Node) Listeners() []Listener { return n.listeners }

// ListenersFor returns the listeners registered for the given event type,
// in registration order.
func (n *Node) ListenersFor(typ string) []Listener {
	var out []Listener
	for _, l := range n.listeners {
		if l.Type == typ {
			out = append(out, l)
		}
	}
	return out
}

// HasListener reports whether any listener for the given type exists.
func (n *Node) HasListener(typ string) bool {
	for _, l := range n.listeners {
		if l.Type == typ {
			return true
		}
	}
	return false
}

// Path returns a human-readable ancestor path like
// "html/body/div#content/span", useful in error messages and tests.
func (n *Node) Path() string {
	var parts []string
	for cur := n; cur != nil && cur.Type == ElementNode; cur = cur.parent {
		p := cur.Tag
		if id := cur.ID(); id != "" {
			p += "#" + id
		}
		parts = append(parts, p)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// IsEditable reports whether the element accepts keystrokes: an input,
// a textarea, or an element with contenteditable="true" (or an ancestor
// with it). Modern web applications (GMail compose, Google Docs cells,
// Google Sites editor) rely on contenteditable containers, which is why
// page-level recorders miss keystrokes into them (paper Table II).
func (n *Node) IsEditable() bool {
	if n.Type != ElementNode {
		return false
	}
	if n.Tag == "input" || n.Tag == "textarea" {
		return true
	}
	for cur := n; cur != nil; cur = cur.parent {
		if v, ok := cur.Attr("contenteditable"); ok && (v == "" || strings.EqualFold(v, "true")) {
			return true
		}
	}
	return false
}
