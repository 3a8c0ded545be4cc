package dom

import (
	"strings"
	"testing"
)

func TestOuterHTMLBasic(t *testing.T) {
	div := NewElement("div", "id", "x", "class", "a b")
	div.AppendChild(NewText("hi"))
	want := `<div id="x" class="a b">hi</div>`
	if got := div.OuterHTML(); got != want {
		t.Fatalf("OuterHTML = %q, want %q", got, want)
	}
}

func TestInnerHTML(t *testing.T) {
	div := NewElement("div")
	div.AppendChild(NewElement("br"))
	div.AppendChild(NewText("x"))
	if got := div.InnerHTML(); got != "<br>x" {
		t.Fatalf("InnerHTML = %q", got)
	}
}

func TestVoidElementsNoClosingTag(t *testing.T) {
	img := NewElement("img", "src", "a.png")
	if got := img.OuterHTML(); got != `<img src="a.png">` {
		t.Fatalf("OuterHTML = %q", got)
	}
	if !IsVoidElement("BR") || IsVoidElement("div") {
		t.Fatal("IsVoidElement broken")
	}
}

func TestTextEscaping(t *testing.T) {
	div := NewElement("div")
	div.AppendChild(NewText(`a < b & c > d`))
	if got := div.OuterHTML(); got != "<div>a &lt; b &amp; c &gt; d</div>" {
		t.Fatalf("OuterHTML = %q", got)
	}
}

func TestAttrEscaping(t *testing.T) {
	div := NewElement("div", "title", `say "hi" & bye`)
	if got := div.OuterHTML(); !strings.Contains(got, `title="say &quot;hi&quot; &amp; bye"`) {
		t.Fatalf("OuterHTML = %q", got)
	}
}

func TestScriptTextNotEscaped(t *testing.T) {
	s := NewElement("script")
	s.AppendChild(NewText("if (a < b && c > d) {}"))
	if got := s.OuterHTML(); got != "<script>if (a < b && c > d) {}</script>" {
		t.Fatalf("OuterHTML = %q", got)
	}
}

func TestCommentSerialization(t *testing.T) {
	div := NewElement("div")
	div.AppendChild(NewComment(" note "))
	if got := div.OuterHTML(); got != "<div><!-- note --></div>" {
		t.Fatalf("OuterHTML = %q", got)
	}
}

func TestDocumentSerialization(t *testing.T) {
	d := NewDocument("https://example.test/")
	d.Body().AppendChild(NewText("hello"))
	want := "<html><head></head><body>hello</body></html>"
	if got := d.HTML(); got != want {
		t.Fatalf("HTML = %q, want %q", got, want)
	}
}

func TestDocumentAccessors(t *testing.T) {
	d := NewDocument("u")
	if d.DocumentElement() == nil || d.Head() == nil || d.Body() == nil {
		t.Fatal("document skeleton incomplete")
	}
	title := NewElement("title")
	title.AppendChild(NewText("  My Page "))
	d.Head().AppendChild(title)
	if got := d.Title(); got != "My Page" {
		t.Fatalf("Title = %q", got)
	}
	el := d.CreateElement("div")
	el.SetAttr("id", "z")
	d.Body().AppendChild(el)
	if d.GetElementByID("z") != el {
		t.Fatal("GetElementByID failed")
	}
	if len(d.ElementsByTag("div")) != 1 {
		t.Fatal("ElementsByTag failed")
	}
}

func TestWrapDocumentPanicsOnNonDocument(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	WrapDocument(NewElement("div"), "u")
}

func TestDocumentClone(t *testing.T) {
	d := NewDocument("u")
	d.Body().AppendChild(NewElement("div", "id", "a"))
	c := d.CloneWithIndex(nil)
	c.GetElementByID("a").SetAttr("id", "b")
	if d.GetElementByID("a") == nil {
		t.Fatal("clone mutated original")
	}
	if c.URL != "u" {
		t.Fatal("clone lost URL")
	}
}
