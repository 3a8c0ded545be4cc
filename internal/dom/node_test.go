package dom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewElementAttrs(t *testing.T) {
	n := NewElement("DIV", "id", "content", "class", "cell")
	if n.Tag != "div" {
		t.Errorf("Tag = %q, want div", n.Tag)
	}
	if got := n.ID(); got != "content" {
		t.Errorf("ID = %q, want content", got)
	}
	if got := n.AttrOr("class", ""); got != "cell" {
		t.Errorf("class = %q, want cell", got)
	}
}

func TestNewElementOddAttrsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for odd attribute count")
		}
	}()
	NewElement("div", "id")
}

func TestAppendChildSetsParent(t *testing.T) {
	p := NewElement("div")
	c := NewElement("span")
	p.AppendChild(c)
	if c.Parent() != p {
		t.Fatal("child parent not set")
	}
	if p.NumChildren() != 1 || p.FirstChild() != c {
		t.Fatal("child not appended")
	}
}

func TestAppendChildReparents(t *testing.T) {
	a := NewElement("div")
	b := NewElement("div")
	c := NewElement("span")
	a.AppendChild(c)
	b.AppendChild(c)
	if a.NumChildren() != 0 {
		t.Error("child still attached to old parent")
	}
	if c.Parent() != b {
		t.Error("child not reparented")
	}
}

func TestAppendChildCyclePanics(t *testing.T) {
	p := NewElement("div")
	c := NewElement("span")
	p.AppendChild(c)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on cycle")
		}
	}()
	c.AppendChild(p)
}

func TestInsertBefore(t *testing.T) {
	p := NewElement("ul")
	a := NewElement("li", "id", "a")
	b := NewElement("li", "id", "b")
	c := NewElement("li", "id", "c")
	p.AppendChild(a)
	p.AppendChild(c)
	p.InsertBefore(b, c)
	ids := make([]string, 0, 3)
	for _, ch := range p.Children() {
		ids = append(ids, ch.ID())
	}
	if strings.Join(ids, "") != "abc" {
		t.Fatalf("order = %v, want [a b c]", ids)
	}
}

func TestInsertBeforeNilRefAppends(t *testing.T) {
	p := NewElement("ul")
	a := NewElement("li")
	p.InsertBefore(a, nil)
	if p.LastChild() != a {
		t.Fatal("nil ref did not append")
	}
}

func TestSiblings(t *testing.T) {
	p := NewElement("div")
	a, b, c := NewText("a"), NewText("b"), NewText("c")
	p.AppendChild(a)
	p.AppendChild(b)
	p.AppendChild(c)
	if b.PrevSibling() != a || b.NextSibling() != c {
		t.Fatal("sibling navigation broken")
	}
	if a.PrevSibling() != nil || c.NextSibling() != nil {
		t.Fatal("edge siblings should be nil")
	}
}

func TestDetachAndIndex(t *testing.T) {
	p := NewElement("div")
	a := NewElement("span")
	b := NewElement("span")
	p.AppendChild(a)
	p.AppendChild(b)
	if a.Index() != 0 || b.Index() != 1 {
		t.Fatal("bad indices")
	}
	a.Detach()
	if a.Parent() != nil || a.Index() != -1 {
		t.Fatal("detach did not clear parent")
	}
	if b.Index() != 0 {
		t.Fatal("sibling index not updated after detach")
	}
}

func TestElementIndexCountsSameTagOnly(t *testing.T) {
	p := NewElement("tr")
	d1 := NewElement("td")
	s := NewElement("span")
	d2 := NewElement("td")
	p.AppendChild(d1)
	p.AppendChild(s)
	p.AppendChild(d2)
	if d1.ElementIndex() != 1 || d2.ElementIndex() != 2 {
		t.Fatalf("ElementIndex = %d,%d want 1,2", d1.ElementIndex(), d2.ElementIndex())
	}
	if s.ElementIndex() != 1 {
		t.Fatalf("span ElementIndex = %d, want 1", s.ElementIndex())
	}
}

func TestRemoveChildPanicsOnNonChild(t *testing.T) {
	p := NewElement("div")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.RemoveChild(NewElement("span"))
}

func TestReplaceChild(t *testing.T) {
	p := NewElement("div")
	old := NewElement("a")
	p.AppendChild(old)
	repl := NewElement("b")
	p.ReplaceChild(repl, old)
	if p.NumChildren() != 1 || p.FirstChild() != repl {
		t.Fatal("replace failed")
	}
	if old.Parent() != nil {
		t.Fatal("old child still attached")
	}
}

func TestContainsAndRoot(t *testing.T) {
	a := NewElement("html")
	b := NewElement("body")
	c := NewElement("div")
	a.AppendChild(b)
	b.AppendChild(c)
	if !a.Contains(c) || !a.Contains(a) {
		t.Fatal("Contains broken")
	}
	if c.Contains(a) {
		t.Fatal("Contains inverted")
	}
	if c.Root() != a {
		t.Fatal("Root broken")
	}
	if c.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", c.Depth())
	}
}

func TestAttrCaseInsensitive(t *testing.T) {
	n := NewElement("div")
	n.SetAttr("ID", "x")
	if v, ok := n.Attr("id"); !ok || v != "x" {
		t.Fatal("attribute names should be case-insensitive")
	}
	n.SetAttr("id", "y")
	if len(n.Attrs()) != 1 {
		t.Fatal("SetAttr created duplicate")
	}
	n.RemoveAttr("Id")
	if n.HasAttr("id") {
		t.Fatal("RemoveAttr failed")
	}
}

func TestAttrExactSkipsCaseFolding(t *testing.T) {
	n := NewElement("div")
	n.SetAttr("OnClick", "go()")
	if v, ok := n.AttrExact("onclick"); !ok || v != "go()" {
		t.Errorf("AttrExact(onclick) = %q, %v; names are stored lower-case", v, ok)
	}
	if _, ok := n.AttrExact("OnClick"); ok {
		t.Error("AttrExact folded the case of its argument")
	}
	if !n.HasAttrPrefix("on") || n.HasAttrPrefix("id") {
		t.Error("HasAttrPrefix disagrees with the attribute list")
	}
}

func TestTextContent(t *testing.T) {
	n := NewElement("div")
	n.AppendChild(NewText("Hello "))
	span := NewElement("span")
	span.AppendChild(NewText("world"))
	n.AppendChild(span)
	n.AppendChild(NewText("!"))
	if got := n.TextContent(); got != "Hello world!" {
		t.Fatalf("TextContent = %q", got)
	}
	if got := n.OwnText(); got != "Hello !" {
		t.Fatalf("OwnText = %q", got)
	}
}

func TestSetTextContent(t *testing.T) {
	n := NewElement("div")
	n.AppendChild(NewElement("span"))
	n.SetTextContent("plain")
	if n.NumChildren() != 1 || n.FirstChild().Type != TextNode {
		t.Fatal("SetTextContent did not replace children")
	}
	n.SetTextContent("")
	if n.NumChildren() != 0 {
		t.Fatal("empty SetTextContent should remove all children")
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	root := NewElement("a")
	b := NewElement("b")
	c := NewElement("c")
	root.AppendChild(b)
	b.AppendChild(c)
	root.AppendChild(NewElement("d"))
	var tags []string
	root.Walk(func(n *Node) bool {
		tags = append(tags, n.Tag)
		return true
	})
	if strings.Join(tags, "") != "abcd" {
		t.Fatalf("walk order = %v", tags)
	}
	tags = nil
	root.Walk(func(n *Node) bool {
		tags = append(tags, n.Tag)
		return n.Tag != "b"
	})
	if strings.Join(tags, "") != "ab" {
		t.Fatalf("early stop order = %v", tags)
	}
}

func TestFindAndByID(t *testing.T) {
	root := NewElement("div")
	target := NewElement("span", "id", "x")
	root.AppendChild(NewElement("span"))
	root.AppendChild(target)
	if root.ByID("x") != target {
		t.Fatal("ByID failed")
	}
	if root.ByID("missing") != nil {
		t.Fatal("ByID found a ghost")
	}
	all := root.FindAll(func(n *Node) bool { return n.Tag == "span" })
	if len(all) != 2 {
		t.Fatalf("FindAll = %d spans, want 2", len(all))
	}
}

func TestCloneDeepIndependence(t *testing.T) {
	root := NewElement("div", "id", "orig")
	child := NewElement("span")
	child.AppendChild(NewText("hi"))
	root.AppendChild(child)
	root.AddListener(Listener{Type: "click", Fn: 1})

	c := root.Clone(true)
	if c.OuterHTML() != root.OuterHTML() {
		t.Fatalf("clone differs: %q vs %q", c.OuterHTML(), root.OuterHTML())
	}
	if c.HasListener("click") {
		t.Fatal("listeners must not be cloned")
	}
	c.SetAttr("id", "copy")
	if root.ID() != "orig" {
		t.Fatal("clone shares attrs with original")
	}
	c.FirstChild().SetTextContent("bye")
	if root.TextContent() != "hi" {
		t.Fatal("clone shares children with original")
	}
}

func TestCloneShallow(t *testing.T) {
	root := NewElement("div")
	root.AppendChild(NewElement("span"))
	c := root.Clone(false)
	if c.NumChildren() != 0 {
		t.Fatal("shallow clone copied children")
	}
}

func TestListeners(t *testing.T) {
	n := NewElement("button")
	n.AddListener(Listener{Type: "click", Fn: "a"})
	n.AddListener(Listener{Type: "click", Capture: true, Fn: "b"})
	n.AddListener(Listener{Type: "keydown", Fn: "c"})
	if got := len(n.ListenersFor("click")); got != 2 {
		t.Fatalf("click listeners = %d, want 2", got)
	}
	if !n.HasListener("keydown") || n.HasListener("focus") {
		t.Fatal("HasListener broken")
	}
	n.RemoveListeners("click")
	if n.HasListener("click") || !n.HasListener("keydown") {
		t.Fatal("RemoveListeners(type) broken")
	}
	n.RemoveListeners("")
	if n.HasListener("keydown") {
		t.Fatal("RemoveListeners(all) broken")
	}
}

func TestPath(t *testing.T) {
	html := NewElement("html")
	body := NewElement("body")
	div := NewElement("div", "id", "content")
	span := NewElement("span")
	html.AppendChild(body)
	body.AppendChild(div)
	div.AppendChild(span)
	if got := span.Path(); got != "html/body/div#content/span" {
		t.Fatalf("Path = %q", got)
	}
}

func TestIsEditable(t *testing.T) {
	if !NewElement("input").IsEditable() {
		t.Error("input should be editable")
	}
	if !NewElement("textarea").IsEditable() {
		t.Error("textarea should be editable")
	}
	if NewElement("div").IsEditable() {
		t.Error("plain div should not be editable")
	}
	ce := NewElement("div", "contenteditable", "true")
	inner := NewElement("span")
	ce.AppendChild(inner)
	if !ce.IsEditable() || !inner.IsEditable() {
		t.Error("contenteditable should propagate to descendants")
	}
	if NewText("x").IsEditable() {
		t.Error("text node is not editable")
	}
}

func TestNodeTypeString(t *testing.T) {
	cases := map[NodeType]string{
		ElementNode:  "element",
		TextNode:     "text",
		CommentNode:  "comment",
		DocumentNode: "document",
		NodeType(99): "NodeType(99)",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

// Property: TextContent is invariant under wrapping text in extra spans.
func TestTextContentWrapInvariant(t *testing.T) {
	f := func(words []string) bool {
		flat := NewElement("div")
		nested := NewElement("div")
		for _, w := range words {
			flat.AppendChild(NewText(w))
			span := NewElement("span")
			span.AppendChild(NewText(w))
			nested.AppendChild(span)
		}
		return flat.TextContent() == nested.TextContent()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone(true) always produces an identical serialization.
func TestCloneSerializationProperty(t *testing.T) {
	f := func(ids []string, texts []string) bool {
		root := NewElement("div")
		cur := root
		for i, id := range ids {
			child := NewElement("span", "id", id)
			if i < len(texts) {
				child.AppendChild(NewText(texts[i]))
			}
			cur.AppendChild(child)
			cur = child
		}
		return root.Clone(true).OuterHTML() == root.OuterHTML()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
