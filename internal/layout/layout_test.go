package layout

import (
	"testing"

	"github.com/dslab-epfl/warr/internal/dom"
	"github.com/dslab-epfl/warr/internal/htmlparse"
)

func TestBoxContains(t *testing.T) {
	b := Box{X: 10, Y: 20, W: 30, H: 40}
	if !b.Contains(10, 20) || !b.Contains(39, 59) {
		t.Error("Contains misses interior points")
	}
	if b.Contains(40, 20) || b.Contains(10, 60) || b.Contains(9, 20) {
		t.Error("Contains hits exterior points")
	}
	x, y := b.Center()
	if x != 25 || y != 40 {
		t.Errorf("Center = %d,%d", x, y)
	}
}

func TestBlocksStackVertically(t *testing.T) {
	d := htmlparse.Parse(`<div id="a">one</div><div id="b">two</div>`, "u")
	l := Compute(d, 800)
	ba, _ := l.BoxOf(d.GetElementByID("a"))
	bb, _ := l.BoxOf(d.GetElementByID("b"))
	if ba.Y >= bb.Y {
		t.Fatalf("blocks not stacked: a.Y=%d b.Y=%d", ba.Y, bb.Y)
	}
	if ba.W != 800 || bb.W != 800 {
		t.Fatalf("block widths = %d,%d, want 800", ba.W, bb.W)
	}
}

func TestChildrenInsideParents(t *testing.T) {
	d := htmlparse.Parse(`<div id="p"><div id="c1">x</div><div id="c2">y</div></div>`, "u")
	l := Compute(d, 800)
	p, _ := l.BoxOf(d.GetElementByID("p"))
	for _, id := range []string{"c1", "c2"} {
		c, ok := l.BoxOf(d.GetElementByID(id))
		if !ok {
			t.Fatalf("no box for %s", id)
		}
		if c.X < p.X || c.Y < p.Y || c.X+c.W > p.X+p.W || c.Y+c.H > p.Y+p.H {
			t.Fatalf("child %s box %+v escapes parent %+v", id, c, p)
		}
	}
}

func TestSiblingBlocksDoNotOverlap(t *testing.T) {
	d := htmlparse.Parse(`<div id="a">aa</div><div id="b">bb</div><div id="c">cc</div>`, "u")
	l := Compute(d, 640)
	ids := []string{"a", "b", "c"}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			bi, _ := l.BoxOf(d.GetElementByID(ids[i]))
			bj, _ := l.BoxOf(d.GetElementByID(ids[j]))
			if bi.Y+bi.H > bj.Y && bj.Y+bj.H > bi.Y {
				t.Fatalf("boxes %s %+v and %s %+v overlap", ids[i], bi, ids[j], bj)
			}
		}
	}
}

func TestTableCellsSplitHorizontally(t *testing.T) {
	d := htmlparse.Parse(`<table><tr><td id="l">left</td><td id="r">right</td></tr></table>`, "u")
	l := Compute(d, 600)
	bl, _ := l.BoxOf(d.GetElementByID("l"))
	br, _ := l.BoxOf(d.GetElementByID("r"))
	if bl.Y != br.Y {
		t.Fatalf("cells not on same row: %d vs %d", bl.Y, br.Y)
	}
	if bl.X+bl.W > br.X {
		t.Fatalf("cells overlap: %+v %+v", bl, br)
	}
}

// TestHiddenElementHasZeroBox pins what hiding does to a subtree: its
// root gets a zero box, its descendants none, and no point hits either.
func TestHiddenElementHasZeroBox(t *testing.T) {
	d := htmlparse.Parse(`<div id="v">shown</div><div id="h" style="display: none">hidden<span id="in">x</span></div>`, "u")
	l := Compute(d, 800)
	h, in := d.GetElementByID("h"), d.GetElementByID("in")
	bh, ok := l.BoxOf(h)
	if !ok || bh.W != 0 || bh.H != 0 {
		t.Fatalf("hidden box = %+v, %v; want a zero box", bh, ok)
	}
	if b, ok := l.BoxOf(in); ok {
		t.Fatalf("descendant of a hidden element has box %+v", b)
	}
	for y := 0; y < 40; y++ {
		if hit := l.HitTest(1, y); hit == h || hit == in {
			t.Fatalf("HitTest(1,%d) hit hidden %s", y, hit.Path())
		}
	}
	d2 := htmlparse.Parse(`<div id="h" hidden>x</div>`, "u")
	l2 := Compute(d2, 800)
	b2, _ := l2.BoxOf(d2.GetElementByID("h"))
	if b2.W != 0 {
		t.Fatal("hidden attribute not honored")
	}
}

// TestBoxOfNodesNotLaidOut: only elements under <body> get boxes.
func TestBoxOfNodesNotLaidOut(t *testing.T) {
	d := htmlparse.Parse(`<head><title>t</title></head><body><div id="x">x</div></body>`, "u")
	l := Compute(d, 800)
	text := d.GetElementByID("x").FirstChild()
	for name, n := range map[string]*dom.Node{
		"head element": d.Head().FirstChild(),
		"text node":    text,
		"detached":     dom.NewElement("div"),
	} {
		if b, ok := l.BoxOf(n); ok {
			t.Errorf("%s: BoxOf = %+v, true; want false", name, b)
		}
		if x, y := l.Center(n); x != 0 || y != 0 {
			t.Errorf("%s: Center = %d,%d; want 0,0", name, x, y)
		}
	}
}

// TestHitTestEqualDepthTieGoesToDocumentOrder pins HitTest's tie-break:
// of two equally deep boxes under the point, the earlier in document
// order wins. Compute never overlaps siblings, so the boxes are set by
// hand.
func TestHitTestEqualDepthTieGoesToDocumentOrder(t *testing.T) {
	d := htmlparse.Parse(`<div id="a">a</div><div id="b">b</div>`, "u")
	a, b := d.GetElementByID("a"), d.GetElementByID("b")
	box := Box{X: 0, Y: 0, W: 10, H: 10}
	l := &Layout{nodes: []*dom.Node{a, b}, boxes: []Box{box, box}}
	if hit := l.HitTest(5, 5); hit != a {
		t.Errorf("tie between #a and #b hit %v, want #a", hit)
	}
}

func TestHitTestFindsDeepest(t *testing.T) {
	d := htmlparse.Parse(`<div id="outer"><span id="inner">click me</span></div>`, "u")
	l := Compute(d, 800)
	inner := d.GetElementByID("inner")
	x, y := l.Center(inner)
	hit := l.HitTest(x, y)
	if hit != inner {
		t.Fatalf("HitTest(%d,%d) = %v, want #inner", x, y, hit)
	}
}

func TestHitTestOutside(t *testing.T) {
	d := htmlparse.Parse(`<div>x</div>`, "u")
	l := Compute(d, 800)
	if got := l.HitTest(-5, -5); got != nil {
		t.Fatalf("HitTest outside = %v, want nil", got)
	}
}

func TestInlineElementsContentWidth(t *testing.T) {
	d := htmlparse.Parse(`<div><button id="b">OK</button></div>`, "u")
	l := Compute(d, 800)
	bb, _ := l.BoxOf(d.GetElementByID("b"))
	if bb.W >= 800 {
		t.Fatalf("button width = %d, want content-proportional", bb.W)
	}
	if bb.W <= 0 {
		t.Fatal("button has no width")
	}
}

func TestInputValueWidth(t *testing.T) {
	d := htmlparse.Parse(`<div><input id="i" type="text"></div>`, "u")
	d.GetElementByID("i").SetValue("some typed text")
	l := Compute(d, 800)
	b, _ := l.BoxOf(d.GetElementByID("i"))
	if b.W <= inlinePadding {
		t.Fatalf("input width = %d, want value-proportional", b.W)
	}
}

func TestComputeDefaults(t *testing.T) {
	d := htmlparse.Parse(`<div id="x">x</div>`, "u")
	l := Compute(d, 0)
	b, _ := l.BoxOf(d.GetElementByID("x"))
	if b.W != DefaultViewportWidth {
		t.Fatalf("width = %d, want default %d", b.W, DefaultViewportWidth)
	}
}

func TestNoBodyDocument(t *testing.T) {
	root := dom.NewDocumentNode()
	doc := dom.WrapDocument(root, "u")
	l := Compute(doc, 100) // must not panic
	if l.HitTest(5, 5) != nil {
		t.Fatal("empty doc hit test should be nil")
	}
}

func TestDeterminism(t *testing.T) {
	src := `<div><span>a</span><table><tr><td>x</td></tr></table></div>`
	d1 := htmlparse.Parse(src, "u")
	d2 := htmlparse.Parse(src, "u")
	l1, l2 := Compute(d1, 500), Compute(d2, 500)
	var n1, n2 []*dom.Node
	d1.Root().Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			n1 = append(n1, n)
		}
		return true
	})
	d2.Root().Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			n2 = append(n2, n)
		}
		return true
	})
	for i := range n1 {
		b1, ok1 := l1.BoxOf(n1[i])
		b2, ok2 := l2.BoxOf(n2[i])
		if ok1 != ok2 || b1 != b2 {
			t.Fatalf("layout not deterministic at %s: %+v vs %+v", n1[i].Tag, b1, b2)
		}
	}
}
