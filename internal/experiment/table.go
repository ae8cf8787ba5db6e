// Package experiment defines one reproducible experiment per table and
// figure of the paper's evaluation, shares simulation results across them
// through a caching runner, and renders the same rows/series the paper
// reports as ASCII tables. The cmd/rippleexp binary and bench_test.go are
// thin wrappers over this package.
package experiment

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is one rendered experiment artifact (a figure's data series or a
// literal table).
type Table struct {
	ID    string
	Title string
	Note  string
	// RowHeader labels the first column (usually "application").
	RowHeader string
	Cols      []string
	rows      []tableRow
	// meanCols marks which columns get an arithmetic-mean footer.
	meanCols []bool
}

type tableRow struct {
	label string
	cells []string
	vals  []float64 // NaN-free parallel values for mean computation
	isNum []bool
}

// NewTable constructs a table with the given identity and columns.
func NewTable(id, title, rowHeader string, cols ...string) *Table {
	return &Table{
		ID:        id,
		Title:     title,
		RowHeader: rowHeader,
		Cols:      cols,
		meanCols:  make([]bool, len(cols)),
	}
}

// WithMean enables the mean footer for all columns.
func (t *Table) WithMean() *Table {
	for i := range t.meanCols {
		t.meanCols[i] = true
	}
	return t
}

// AddRow appends a row of preformatted string cells (no mean
// contribution).
func (t *Table) AddRow(label string, cells ...string) {
	r := tableRow{label: label, cells: cells,
		vals:  make([]float64, len(cells)),
		isNum: make([]bool, len(cells))}
	t.rows = append(t.rows, r)
}

// AddRowF appends a row of numeric cells rendered with the given format
// (e.g. "%.2f"); they participate in the mean footer.
func (t *Table) AddRowF(label, format string, vals ...float64) {
	r := tableRow{label: label,
		cells: make([]string, len(vals)),
		vals:  append([]float64(nil), vals...),
		isNum: make([]bool, len(vals))}
	for i, v := range vals {
		r.cells[i] = fmt.Sprintf(format, v)
		r.isNum[i] = true
	}
	t.rows = append(t.rows, r)
}

// Value returns the numeric cell at (rowLabel, col); ok is false for
// missing or non-numeric cells. Tests use this to assert on results.
func (t *Table) Value(rowLabel, col string) (float64, bool) {
	ci := -1
	for i, c := range t.Cols {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.rows {
		if r.label == rowLabel && ci < len(r.cells) && r.isNum[ci] {
			return r.vals[ci], true
		}
	}
	return 0, false
}

// Rows returns the row labels in insertion order.
func (t *Table) Rows() []string {
	out := make([]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = r.label
	}
	return out
}

// Mean returns the arithmetic mean of a column over numeric cells.
func (t *Table) Mean(col string) (float64, bool) {
	ci := -1
	for i, c := range t.Cols {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	sum, n := 0.0, 0
	for _, r := range t.rows {
		if ci < len(r.cells) && r.isNum[ci] {
			sum += r.vals[ci]
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Cols)+1)
	widths[0] = len(t.RowHeader)
	for _, r := range t.rows {
		if len(r.label) > widths[0] {
			widths[0] = len(r.label)
		}
	}
	if widths[0] < len("mean") {
		widths[0] = len("mean")
	}
	for i, c := range t.Cols {
		widths[i+1] = len(c)
		for _, r := range t.rows {
			if i < len(r.cells) && len(r.cells[i]) > widths[i+1] {
				widths[i+1] = len(r.cells[i])
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[0], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		fmt.Fprintln(w, b.String())
	}
	hdr := append([]string{t.RowHeader}, t.Cols...)
	line(hdr)
	sep := make([]string, len(hdr))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(append([]string{r.label}, r.cells...))
	}
	if t.anyMean() {
		cells := []string{"mean"}
		for i, c := range t.Cols {
			if !t.meanCols[i] {
				cells = append(cells, "")
				continue
			}
			if m, ok := t.Mean(c); ok {
				cells = append(cells, strconv.FormatFloat(m, 'f', 2, 64))
			} else {
				cells = append(cells, "")
			}
		}
		line(sep)
		line(cells)
	}
}

func (t *Table) anyMean() bool {
	for _, m := range t.meanCols {
		if m {
			return true
		}
	}
	return false
}
