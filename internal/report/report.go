// Package report renders experiment results as aligned text tables and
// compact ASCII distribution plots, matching the rows/series the paper's
// figures and tables present.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRowf appends a row of preformatted cells.
func (t *Table) AddRowf(cells ...string) *Table {
	t.rows = append(t.rows, cells)
	return t
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(width) && len([]rune(c)) > width[i] {
				width[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(width) {
				pad = width[i] - len([]rune(c))
			}
			b.WriteString(strings.Repeat(" ", pad))
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Sparkline renders values as a one-line unicode mini-plot, used to give
// distribution figures a visual shape in terminal output.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
