package dom

import "testing"

// testDoc builds a small indexed document:
//
//	<html><head></head><body>
//	  <div id="a" class="box"><span name="x">one</span></div>
//	  <div id="b" class="box"><span name="y">two</span></div>
//	</body></html>
func testDoc(t *testing.T) (*Document, *Node, *Node) {
	t.Helper()
	d := NewDocument("http://test/")
	divA := NewElement("div", "id", "a", "class", "box")
	divA.AppendChild(NewElement("span", "name", "x"))
	divA.FirstChild().AppendChild(NewText("one"))
	divB := NewElement("div", "id", "b", "class", "box")
	divB.AppendChild(NewElement("span", "name", "y"))
	divB.FirstChild().AppendChild(NewText("two"))
	d.Body().AppendChild(divA)
	d.Body().AppendChild(divB)
	return d, divA, divB
}

func TestIndexAnswersAfterBuild(t *testing.T) {
	d, divA, divB := testDoc(t)
	ix := d.Index()
	if ix == nil {
		t.Fatal("document has no index")
	}
	if got := ix.ByID("a"); got != divA {
		t.Errorf("ByID(a) = %v, want div#a", got)
	}
	if got := ix.CountTag("div"); got != 2 {
		t.Errorf("CountTag(div) = %d, want 2", got)
	}
	if got := ix.CountAttr("class", "box"); got != 2 {
		t.Errorf("CountAttr(class=box) = %d, want 2", got)
	}
	if got := ix.CountAttr("name", "y"); got != 1 {
		t.Errorf("CountAttr(name=y) = %d, want 1", got)
	}
	if got := d.GetElementByID("b"); got != divB {
		t.Errorf("GetElementByID(b) = %v, want div#b", got)
	}
}

func TestIndexMaintainedUnderAppendAndRemove(t *testing.T) {
	d, divA, _ := testDoc(t)
	ix := d.Index()

	// Appending a subtree registers every node in it.
	sub := NewElement("ul", "id", "list")
	sub.AppendChild(NewElement("li", "class", "item"))
	sub.AppendChild(NewElement("li", "class", "item"))
	divA.AppendChild(sub)
	if got := ix.ByID("list"); got != sub {
		t.Errorf("ByID(list) = %v after append, want the ul", got)
	}
	if got := ix.CountAttr("class", "item"); got != 2 {
		t.Errorf("CountAttr(class=item) = %d, want 2", got)
	}
	if sub.QueryIndex() != ix {
		t.Error("appended subtree not stamped with the index")
	}

	// Detaching deregisters the whole subtree.
	sub.Detach()
	if got := ix.ByID("list"); got != nil {
		t.Errorf("ByID(list) = %v after detach, want nil", got)
	}
	if got := ix.CountAttr("class", "item"); got != 0 {
		t.Errorf("CountAttr(class=item) = %d after detach, want 0", got)
	}
	if sub.QueryIndex() != nil {
		t.Error("detached subtree still stamped with the index")
	}

	// A detached subtree can be re-adopted, including by another document.
	other := NewDocument("http://other/")
	other.Body().AppendChild(sub)
	if got := other.Index().ByID("list"); got != sub {
		t.Errorf("other doc ByID(list) = %v, want the ul", got)
	}
	if got := ix.ByID("list"); got != nil {
		t.Errorf("original doc still resolves the moved ul")
	}
}

func TestIndexMaintainedUnderReID(t *testing.T) {
	d, divA, _ := testDoc(t)
	ix := d.Index()

	divA.SetAttr("id", "a2") // the GMail regenerated-id mutation
	if got := ix.ByID("a"); got != nil {
		t.Errorf("ByID(a) = %v after re-id, want nil", got)
	}
	if got := ix.ByID("a2"); got != divA {
		t.Errorf("ByID(a2) = %v after re-id, want div", got)
	}

	divA.RemoveAttr("class")
	if got := ix.CountAttr("class", "box"); got != 1 {
		t.Errorf("CountAttr(class=box) = %d after RemoveAttr, want 1", got)
	}
	divA.SetAttr("data-k", "v")
	if got := ix.CountAttr("data-k", "v"); got != 1 {
		t.Errorf("CountAttr(data-k=v) = %d after SetAttr, want 1", got)
	}
}

func TestGenerationCounterAdvancesOnEveryMutation(t *testing.T) {
	d, divA, divB := testDoc(t)
	ix := d.Index()

	last := ix.Generation()
	bumped := func(what string) {
		t.Helper()
		if g := ix.Generation(); g <= last {
			t.Errorf("generation did not advance after %s (still %d)", what, g)
		} else {
			last = g
		}
	}

	divA.AppendChild(NewElement("p"))
	bumped("AppendChild")
	divA.FirstChild().Detach()
	bumped("Detach")
	divA.SetAttr("id", "z")
	bumped("SetAttr change")
	divA.RemoveAttr("id")
	bumped("RemoveAttr")
	divB.SetTextContent("replaced")
	bumped("SetTextContent")
	divB.FirstChild().SetData("edited")
	bumped("SetData")
	divB.FirstChild().AppendData("!")
	bumped("AppendData")
	divB.SetValue("typed")
	bumped("SetValue")
	divB.AppendValue("x")
	bumped("AppendValue")

	// No-op writes must not invalidate caches.
	divB.SetValue("typedx")
	if g := ix.Generation(); g != last {
		t.Errorf("generation advanced on no-op SetValue: %d != %d", g, last)
	}
	divA.SetAttr("class", "box")
	if g := ix.Generation(); g != last {
		t.Errorf("generation advanced on no-op SetAttr: %d != %d", g, last)
	}
}

func TestCompareDocumentOrder(t *testing.T) {
	d, divA, divB := testDoc(t)
	spanA := divA.FirstChild()
	spanB := divB.FirstChild()

	cases := []struct {
		a, b *Node
		want int // sign
	}{
		{divA, divB, -1},
		{divB, divA, 1},
		{divA, spanA, -1}, // ancestor precedes descendant
		{spanA, divA, 1},
		{spanA, spanB, -1},
		{d.Body(), spanB, -1},
		{divA, divA, 0},
	}
	for _, c := range cases {
		got := CompareDocumentOrder(c.a, c.b)
		if sign(got) != c.want {
			t.Errorf("CompareDocumentOrder(%s, %s) = %d, want sign %d",
				c.a.Path(), c.b.Path(), got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestDocumentCloneGetsOwnIndex(t *testing.T) {
	d, divA, _ := testDoc(t)
	c := d.CloneWithIndex(nil)
	if c.Index() == nil || c.Index() == d.Index() {
		t.Fatal("clone must carry its own index")
	}
	got := c.Index().ByID("a")
	if got == nil || got == divA {
		t.Errorf("clone ByID(a) = %v, want the cloned div, not the original", got)
	}
	// Mutating the clone must not disturb the original's index.
	got.SetAttr("id", "c")
	if d.Index().ByID("a") != divA {
		t.Error("original index lost div#a after clone mutation")
	}
}
