// Package bench regenerates every table and figure of the paper's
// evaluation (§4) as aligned text tables and CSV, one registry row per
// experiment (registry.go). Most experiments are grids (grid.go): a base
// point — a scenario on a stack from benchConfig — edited by x rows and
// column setups, each (row, setup) run once on a fresh stack and read by the
// tables' column extractors. Host batching, scans, reads, the thresholds and
// the point sweeps are hand-written. The shapes — who wins, by what factor,
// where the crossovers fall — are asserted by this package's tests; absolute
// values are simulation-calibrated (see DESIGN.md §3).
package bench

import (
	"fmt"
	"strings"
)

// Table is one reproduced figure/table: an x column plus one series per
// configuration.
type Table struct {
	ID      string   // e.g. "fig8"
	Title   string   // e.g. "Total PCIe Traffic & Avg Response vs Value Size"
	XLabel  string   // e.g. "value size (B)"
	Columns []string // series names
	Rows    []Row
	Notes   []string // caveats and pointers back to the paper
}

// Row is one x point.
type Row struct {
	Label string
	Cells []float64
}

// AddRow appends one x point; the number of cells must match Columns.
func (t *Table) AddRow(label string, cells ...float64) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("bench: row %q has %d cells, want %d", label, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// Column returns the series with the given name.
func (t *Table) Column(name string) ([]float64, error) {
	for i, c := range t.Columns {
		if c == name {
			out := make([]float64, len(t.Rows))
			for j, r := range t.Rows {
				out[j] = r.Cells[i]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("bench: table %s has no column %q", t.ID, name)
}

// Cell returns the value at (rowLabel, column).
func (t *Table) Cell(rowLabel, column string) (float64, error) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("bench: no column %q", column)
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel {
			return r.Cells[col], nil
		}
	}
	return 0, fmt.Errorf("bench: no row %q", rowLabel)
}

// Format renders an aligned text table.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len(t.XLabel)
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Columns {
		widths[i+1] = len(c)
	}
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r.Cells))
		for ci, v := range r.Cells {
			s := formatCell(v)
			cells[ri][ci] = s
			if len(s) > widths[ci+1] {
				widths[ci+1] = len(s)
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], t.XLabel)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "  %*s", widths[i+1], c)
	}
	b.WriteByte('\n')
	for ri, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r.Label)
		for ci := range r.Cells {
			fmt.Fprintf(&b, "  %*s", widths[ci+1], cells[ri][ci])
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func formatCell(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == float64(int64(v)) && av < 1e7:
		return fmt.Sprintf("%d", int64(v))
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(t.XLabel)
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
