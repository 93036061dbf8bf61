package eval

import (
	"fmt"
	"html/template"
	"io"
)

// HTMLReport renders a set of titled tables as a self-contained HTML
// page (no external assets), so experiment results can be shared the way
// operators share incident reviews.
type HTMLReport struct {
	Title    string
	Subtitle string
	Sections []HTMLSection
}

// HTMLSection groups tables under one experiment heading.
type HTMLSection struct {
	Heading string
	Note    string
	Tables  []*Table
	Pre     string // preformatted block (e.g. a session trace)
}

var htmlTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #1a1a1a; }
h1 { font-size: 1.6rem; } h2 { font-size: 1.2rem; margin-top: 2.2rem; border-bottom: 1px solid #ddd; }
.sub { color: #666; }
table { border-collapse: collapse; margin: 0.8rem 0 1.4rem; }
caption { text-align: left; font-weight: 600; padding: 0.3rem 0; }
th, td { border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f3f3f3; }
pre { background: #f7f7f7; border: 1px solid #ddd; padding: 0.8rem; overflow-x: auto; font-size: 12px; }
.note { color: #444; font-style: italic; }
</style></head><body>
<h1>{{.Title}}</h1>
<p class="sub">{{.Subtitle}}</p>
{{range .Sections}}
<h2>{{.Heading}}</h2>
{{if .Note}}<p class="note">{{.Note}}</p>{{end}}
{{if .Pre}}<pre>{{.Pre}}</pre>{{end}}
{{range .Tables}}
<table><caption>{{.Title}}</caption>
<tr>{{range .Headers}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}
</table>
{{end}}
{{end}}
</body></html>
`))

// WriteHTML renders the report.
func (r *HTMLReport) WriteHTML(w io.Writer) error {
	return htmlTmpl.Execute(w, r)
}

// NewHTMLReport builds a report shell with the standard subtitle.
func NewHTMLReport(title string, seed int64, trials int) *HTMLReport {
	return &HTMLReport{
		Title:    title,
		Subtitle: fmt.Sprintf("deterministic run: seed %d, %d trials per cell", seed, trials),
	}
}
