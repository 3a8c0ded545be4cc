package browser

import (
	"testing"

	"github.com/dslab-epfl/warr/internal/dom"
	"github.com/dslab-epfl/warr/internal/vclock"
)

// globalNode returns the node behind the element handle a script stored
// in the frame's global name.
func globalNode(t *testing.T, f *Frame, name string) *dom.Node {
	t.Helper()
	v, ok := f.Interp().Global.OwnLookup(name)
	if !ok {
		t.Fatalf("global %s not defined", name)
	}
	h, ok := v.(*ElementHandle)
	if !ok {
		t.Fatalf("global %s = %T, want an element handle", name, v)
	}
	return h.node
}

// TestForkKeepsDetachedAliases forks a session whose script holds two
// aliases into a createElement tree that was never attached, plus a
// handle to an attached node. The fork must copy the detached tree once,
// so the aliases stay aliases, and neither side may see the other's
// later mutations.
func TestForkKeepsDetachedAliases(t *testing.T) {
	env := newEnv(t, UserMode, map[string]string{
		"/": `<div id="live">live</div><script>
			var tree = document.createElement("div");
			tree.appendChild(document.createElement("span"));
			var a1 = tree.firstChild;
			var a2 = tree.firstChild;
			var live = document.getElementById("live");
		</script>`,
	})
	env.navigate(t, "http://app.test/")
	fk, err := env.browser.CloneOnto(vclock.NewAt(env.clock.Now()), env.network)
	if err != nil {
		t.Fatal(err)
	}
	old := env.tab.MainFrame()
	nf := fk.Frame(old)

	a1, a2, tree := globalNode(t, nf, "a1"), globalNode(t, nf, "a2"), globalNode(t, nf, "tree")
	if a1 != a2 {
		t.Fatal("fork split the aliases a1 and a2 into two nodes")
	}
	if a1 == globalNode(t, old, "a1") || tree == globalNode(t, old, "tree") {
		t.Fatal("fork shares the detached tree with its parent")
	}
	if a1.Parent() != tree || tree.Parent() != nil || tree.QueryIndex() != nil {
		t.Fatal("fork's detached tree lost its shape: a1 must be tree's child, tree a detached root")
	}
	if live := globalNode(t, nf, "live"); live != nf.Doc().GetElementByID("live") {
		t.Fatal("fork's handle to the attached node does not point into the fork's document")
	}

	if _, err := nf.RunScript(`a1.setAttribute("class", "forked"); tree.appendChild(document.createElement("b"));`); err != nil {
		t.Fatal(err)
	}
	if _, ok := globalNode(t, old, "a2").Attr("class"); ok {
		t.Error("fork's attribute write reached the parent's detached tree")
	}
	if n := globalNode(t, old, "tree").NumChildren(); n != 1 {
		t.Errorf("parent's detached tree has %d children after the fork appended, want 1", n)
	}
	if _, err := old.RunScript(`a2.textContent = "parent"; live.textContent = "changed";`); err != nil {
		t.Fatal(err)
	}
	if got := a2.TextContent(); got != "" {
		t.Errorf("fork's alias reads %q after a parent-side write, want empty", got)
	}
	if got := nf.Doc().GetElementByID("live").TextContent(); got != "live" {
		t.Errorf("fork's live node reads %q after a parent-side write, want live", got)
	}
}
