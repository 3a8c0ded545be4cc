package apps

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
	"github.com/dslab-epfl/warr/internal/webapp"
)

// docsApp is the Google Docs plugin; per-environment state is a fresh
// *Docs.
type docsApp struct{}

func (docsApp) Name() string                { return DocsName }
func (docsApp) Host() string                { return DocsHost }
func (docsApp) StartURL() string            { return DocsURL }
func (docsApp) NewState() registry.AppState { return NewDocs() }

// DocsApp returns the Google Docs plugin.
func DocsApp() registry.App { return docsApp{} }

func init() { registry.MustRegisterApp(docsApp{}) }

// Docs rows and columns of the simulated spreadsheet.
const (
	DocsRows = 3
	DocsCols = 3
)

// Docs simulates a Google Docs spreadsheet. Editing a cell requires a
// double click (the reason WaRR adds double-click support to
// ChromeDriver, §IV-C: "web applications that use them, such as Google
// Docs, are increasingly popular"), and committing the edit requires an
// Enter keystroke whose keyCode the handler inspects — so replay fidelity
// depends on the developer-mode browser's settable KeyboardEvent
// properties.
type Docs struct {
	srv *webapp.Server

	mu   sync.Mutex
	data docsData
}

// docsData is the mutable state of Docs, declared once
// (registry.Declarer).
type docsData struct {
	Cells map[string]string `json:"cells"`
	// Tally is the shared counter the multi-user workloads bump;
	// omitempty keeps single-user images byte-identical.
	Tally int `json:"tally,omitempty"`
}

// docsSeed is the initial sheet: first-column labels only.
func docsSeed() map[string]string {
	return map[string]string{
		"r1c1": "Item",
		"r2c1": "Travel",
		"r3c1": "Office",
	}
}

// NewDocs returns a spreadsheet with seeded first-column labels.
func NewDocs() *Docs {
	d := &Docs{data: docsData{Cells: docsSeed()}}
	srv := webapp.NewServer("docs")
	srv.Handle("/", d.sheet)
	srv.Handle("/set", d.set)
	srv.Handle("/tally", d.tallyView)
	srv.Handle("/tally/bump", d.tallyBump)
	d.srv = srv
	return d
}

// Handler implements registry.AppState.
func (d *Docs) Handler() netsim.Handler { return d.srv }

// Declare implements registry.Declarer.
func (d *Docs) Declare() (*sync.Mutex, any, *webapp.Server) { return &d.mu, &d.data, d.srv }

// Cell returns the stored value of the cell named e.g. "r1c2".
func (d *Docs) Cell(name string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.data.Cells[name]
}

// Cells returns a sorted snapshot of all non-empty cells as "name=value".
func (d *Docs) Cells() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.data.Cells))
	for k, v := range d.data.Cells {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return out
}

// sheet renders the spreadsheet grid. Each cell is a div (not a form
// control): double-clicking makes it editable, and Enter commits.
func (d *Docs) sheet(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	d.mu.Lock()
	snapshot := make(map[string]string, len(d.data.Cells))
	for k, v := range d.data.Cells {
		snapshot[k] = v
	}
	d.mu.Unlock()

	var rows strings.Builder
	for r := 1; r <= DocsRows; r++ {
		rows.WriteString("<tr>")
		for c := 1; c <= DocsCols; c++ {
			name := fmt.Sprintf("r%dc%d", r, c)
			fmt.Fprintf(&rows,
				`<td><div class="cell" id="%s" ondblclick="editCell('%s')" onkeydown="cellKey(event, '%s')">%s</div></td>`,
				name, name, name, webapp.HTMLEscape(snapshot[name]))
		}
		rows.WriteString("</tr>")
	}

	body := fmt.Sprintf(`
<div id="title">Budget - Google Docs</div>
<table id="sheet"><tbody>%s</tbody></table>
<div id="hint">Double-click a cell to edit; Enter commits.</div>`, rows.String())

	script := `
function editCell(id) {
	var c = document.getElementById(id);
	c.setAttribute("contenteditable", "true");
	c.textContent = "";
	c.focus();
}
function cellKey(event, id) {
	if (event.keyCode == 13) {
		event.preventDefault();
		var c = document.getElementById(id);
		window.location = "/set?cell=" + id + "&v=" + encodeURIComponent(c.textContent);
	}
}
`
	return netsim.OK(webapp.Page("Budget - Google Docs", body, script))
}

// Tally returns the shared sheet counter.
func (d *Docs) Tally() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.data.Tally
}

// tallyView renders the shared sheet counter with a "+1" control. The
// control carries the successor value computed at render time: the
// page reads tally=N and bakes N+1 into the bump URL, so the eventual
// write stores an absolute value derived from a possibly stale read.
// Single-user flows never notice; two users who both render N commit
// N+1 twice and one increment vanishes (the seeded stale-read bug).
func (d *Docs) tallyView(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	d.mu.Lock()
	n := d.data.Tally
	d.mu.Unlock()

	body := fmt.Sprintf(`
<div id="title">Edit tally - Google Docs</div>
<div id="tally">%d</div>
<div id="bump" onclick="bumpTally()">+1</div>`, n)

	script := fmt.Sprintf(`
function bumpTally() {
	window.location = "/tally/bump?v=%d";
}
`, n+1)

	return netsim.OK(webapp.Page("Edit tally - Google Docs", body, script))
}

// tallyBump stores the absolute successor the page computed at render
// time (the seeded stale-read bug; see tallyView).
func (d *Docs) tallyBump(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	v, err := strconv.Atoi(req.Form.Get("v"))
	if err != nil {
		return netsim.NotFound()
	}
	d.mu.Lock()
	d.data.Tally = v
	d.mu.Unlock()
	return webapp.Redirect("/tally")
}

// set commits one cell value and re-renders the sheet.
func (d *Docs) set(req *netsim.Request, sess *webapp.Session) *netsim.Response {
	cell := req.Form.Get("cell")
	if cell == "" {
		return netsim.NotFound()
	}
	d.mu.Lock()
	d.data.Cells[cell] = req.Form.Get("v")
	d.mu.Unlock()
	return webapp.Redirect("/")
}
