// Package layout implements a simple deterministic box layout for the
// simulated browser. WaRR click commands record the position in the
// browser window where the click originated as backup element
// identification (paper §IV-B); producing and consuming those coordinates
// requires every element to have a box, and hit-testing to map a
// coordinate back to the deepest element under it.
//
// The layout model is a simplified flow: elements stack vertically inside
// their parent, table cells split their row horizontally, and inline-ish
// leaf elements get content-proportional widths. It is not typographically
// faithful — it only needs to be deterministic, containment-consistent
// (children inside parents), and collision-free between siblings.
package layout

import (
	"strings"

	"github.com/dslab-epfl/warr/internal/dom"
)

// Default dimensions, in CSS-pixel-like units.
const (
	lineHeight    = 18
	charWidth     = 8
	inlinePadding = 16
	// DefaultViewportWidth matches a common 2011-era browser window.
	DefaultViewportWidth = 1024
)

// Box is an element's rectangle in window coordinates.
type Box struct {
	X, Y, W, H int
}

// Contains reports whether the point (x, y) falls inside the box.
func (b Box) Contains(x, y int) bool {
	return x >= b.X && x < b.X+b.W && y >= b.Y && y < b.Y+b.H
}

// Center returns the box's center point.
func (b Box) Center() (int, int) { return b.X + b.W/2, b.Y + b.H/2 }

// inlineTags render with content-proportional width instead of filling
// their parent.
var inlineTags = map[string]bool{
	"a": true, "b": true, "i": true, "em": true, "strong": true,
	"span": true, "button": true, "input": true, "img": true,
	"label": true, "select": true, "code": true, "small": true,
}

// Layout holds the computed boxes for one document: nodes[i] has box
// boxes[i], in document order.
type Layout struct {
	nodes []*dom.Node
	boxes []Box
}

// Compute lays out the document's body into a viewport of the given width
// (DefaultViewportWidth when w <= 0).
func Compute(doc *dom.Document, w int) *Layout {
	if w <= 0 {
		w = DefaultViewportWidth
	}
	body := doc.Body()
	if body == nil {
		return &Layout{}
	}
	// Size the slices once: every element under body gets at most one box.
	elems := 0
	body.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			elems++
		}
		return true
	})
	l := &Layout{nodes: make([]*dom.Node, 0, elems), boxes: make([]Box, 0, elems)}
	l.layoutBlock(body, 0, 0, w)
	return l
}

// layoutBlock assigns n the box (x, y, w, height) and recursively lays out
// its children; it returns the height consumed. n's slot is taken before
// its children's, so the slices stay in document order.
func (l *Layout) layoutBlock(n *dom.Node, x, y, w int) int {
	i := len(l.nodes)
	l.nodes = append(l.nodes, n)
	l.boxes = append(l.boxes, Box{X: x, Y: y})
	if hidden(n) {
		return 0
	}
	if n.Tag == "tr" {
		return l.layoutRow(i, n, x, y, w)
	}

	cy := y
	if hasOwnText(n) {
		cy += lineHeight
	}
	for k := range n.NumChildren() {
		c := n.ChildAt(k)
		if c.Type != dom.ElementNode {
			continue
		}
		cw := w
		if inlineTags[c.Tag] && c.NumChildren() <= 2 {
			cw = inlineWidth(c, w)
		}
		cy += l.layoutBlock(c, x, cy, cw)
	}
	h := max(cy-y, lineHeight)
	l.boxes[i].W, l.boxes[i].H = w, h
	return h
}

// layoutRow lays out table row n, whose slot is i: element children
// share the width.
func (l *Layout) layoutRow(i int, n *dom.Node, x, y, w int) int {
	h := lineHeight
	if cells := n.ChildElements(); len(cells) > 0 {
		cw := max(w/len(cells), 1)
		for j, c := range cells {
			h = max(h, l.layoutBlock(c, x+j*cw, y, cw))
		}
	}
	l.boxes[i].W, l.boxes[i].H = w, h
	return h
}

// hasOwnText reports whether a direct text child of n holds more than
// whitespace.
func hasOwnText(n *dom.Node) bool {
	for i := 0; i < n.NumChildren(); i++ {
		if c := n.ChildAt(i); c.Type == dom.TextNode && strings.TrimSpace(c.Data) != "" {
			return true
		}
	}
	return false
}

func inlineWidth(n *dom.Node, maxW int) int {
	textLen := len(strings.TrimSpace(n.TextContent()))
	if v := n.Value; v != "" && textLen == 0 {
		textLen = len(v)
	}
	if textLen == 0 {
		textLen = 4
	}
	w := textLen*charWidth + inlinePadding
	if w > maxW {
		w = maxW
	}
	return w
}

// hidden reports whether the element is removed from layout via the hidden
// attribute or an inline display:none style.
func hidden(n *dom.Node) bool {
	if _, ok := n.AttrExact("hidden"); ok {
		return true
	}
	if style, ok := n.AttrExact("style"); ok {
		s := strings.ReplaceAll(style, " ", "")
		if strings.Contains(s, "display:none") {
			return true
		}
	}
	return false
}

// BoxOf returns the element's box and whether the element was laid out.
func (l *Layout) BoxOf(n *dom.Node) (Box, bool) {
	for i, m := range l.nodes {
		if m == n {
			return l.boxes[i], true
		}
	}
	return Box{}, false
}

// Center returns the center point of n's box (0,0 when n has no box).
func (l *Layout) Center(n *dom.Node) (int, int) {
	b, _ := l.BoxOf(n)
	return b.Center()
}

// HitTest returns the deepest visible element whose box contains (x, y),
// or nil when the point falls outside every box. Among equally deep
// boxes the earliest in document order wins.
func (l *Layout) HitTest(x, y int) *dom.Node {
	var best *dom.Node
	bestDepth := -1
	for i, b := range l.boxes {
		if b.W == 0 || b.H == 0 || !b.Contains(x, y) {
			continue
		}
		if d := l.nodes[i].Depth(); d > bestDepth {
			best, bestDepth = l.nodes[i], d
		}
	}
	return best
}
