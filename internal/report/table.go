// Package report renders experiment output: aligned text tables, CSV
// series dumps, and ASCII line charts / sparklines that let the figures
// of the paper be eyeballed straight from a terminal. It has no
// dependency on the rest of the repository so every layer can use it.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row. Cells are formatted with %v; floats use %g
// unless they are passed pre-formatted as strings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// widths computes the rendered width of each column.
func (t *Table) widths() []int {
	n := len(t.header)
	for _, r := range t.rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.header {
		if len(h) > w[i] {
			w[i] = len(h)
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// WriteTo renders the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var total int64
	widths := t.widths()
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, width := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", width-len(cell)))
		}
		line := strings.TrimRight(sb.String(), " ") + "\n"
		n, err := io.WriteString(w, line)
		total += int64(n)
		return err
	}
	if len(t.header) > 0 {
		if err := writeRow(t.header); err != nil {
			return total, err
		}
		var rule []string
		for i, h := range t.header {
			n := widths[i]
			if n < len(h) {
				n = len(h)
			}
			rule = append(rule, strings.Repeat("-", n))
		}
		if err := writeRow(rule); err != nil {
			return total, err
		}
	}
	for _, r := range t.rows {
		if err := writeRow(r); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_, _ = t.WriteTo(&sb)
	return sb.String()
}
