package dom

import "strings"

// Document wraps a #document node together with page-level metadata. The
// browser's Frame owns a Document; scripts address it through the
// interpreter's `document` binding.
type Document struct {
	root *Node
	// URL is the address the document was loaded from.
	URL string
}

// NewDocument returns an empty document (#document node with an <html>
// element containing <head> and <body>).
func NewDocument(url string) *Document {
	root := NewDocumentNode()
	html := NewElement("html")
	html.AppendChild(NewElement("head"))
	html.AppendChild(NewElement("body"))
	root.AppendChild(html)
	buildIndex(root)
	return &Document{root: root, URL: url}
}

// WrapDocument adopts an existing #document node (as produced by the HTML
// parser) into a Document, building its query index in one walk.
func WrapDocument(root *Node, url string) *Document {
	if root == nil || root.Type != DocumentNode {
		panic("dom: WrapDocument requires a #document node")
	}
	if root.qidx == nil {
		buildIndex(root)
	}
	return &Document{root: root, URL: url}
}

// Root returns the #document node.
func (d *Document) Root() *Node { return d.root }

// DocumentElement returns the <html> element, or nil.
func (d *Document) DocumentElement() *Node {
	for _, c := range d.root.ChildElements() {
		if c.Tag == "html" {
			return c
		}
	}
	return nil
}

// Head returns the <head> element, or nil.
func (d *Document) Head() *Node { return d.firstIn("head") }

// Body returns the <body> element, or nil.
func (d *Document) Body() *Node { return d.firstIn("body") }

func (d *Document) firstIn(tag string) *Node {
	html := d.DocumentElement()
	if html == nil {
		return nil
	}
	for _, c := range html.ChildElements() {
		if c.Tag == tag {
			return c
		}
	}
	return nil
}

// Title returns the text of the first <title> element.
func (d *Document) Title() string {
	t := d.root.Find(func(n *Node) bool {
		return n.Type == ElementNode && n.Tag == "title"
	})
	if t == nil {
		return ""
	}
	return strings.TrimSpace(t.TextContent())
}

// GetElementByID returns the first element with the given id, or nil.
// Indexed documents answer from the id table instead of walking the tree.
func (d *Document) GetElementByID(id string) *Node {
	// The walker treats a missing id attribute as "", so only non-empty
	// ids can be answered from the index's table of present attributes.
	if ix := d.root.qidx; ix != nil && id != "" {
		return ix.ByID(id)
	}
	return d.root.ByID(id)
}

// Index returns the document's query index.
func (d *Document) Index() *QueryIndex { return d.root.qidx }

// ElementsByTag returns all elements with the given tag.
func (d *Document) ElementsByTag(tag string) []*Node { return d.root.ElementsByTag(tag) }

// CreateElement returns a new detached element owned by this document.
func (d *Document) CreateElement(tag string) *Node { return NewElement(tag) }

// CreateTextNode returns a new detached text node.
func (d *Document) CreateTextNode(text string) *Node { return NewText(text) }
